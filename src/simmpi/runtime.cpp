#include "simmpi/runtime.hpp"

#include <chrono>
#include <cmath>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <thread>

#include "common/paranoid.hpp"

namespace parfft::smpi {

namespace {
constexpr auto kPollInterval = std::chrono::milliseconds(50);
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

Runtime::Runtime(RuntimeOptions opt)
    : opt_(std::move(opt)),
      map_{opt_.ranks_per_node > 0 ? opt_.ranks_per_node
                                   : opt_.machine.gpus_per_node},
      cost_(opt_.machine, map_, opt_.nranks) {
  PARFFT_CHECK(opt_.nranks >= 1, "need at least one rank");
  PARFFT_CHECK(opt_.nranks <= 512,
               "threaded runtime capped at 512 ranks; use core::Simulator "
               "for larger scales");
  ranks_.reserve(static_cast<std::size_t>(opt_.nranks));
  for (int r = 0; r < opt_.nranks; ++r)
    ranks_.push_back(std::make_unique<RankCtx>());
  std::vector<int> world(static_cast<std::size_t>(opt_.nranks));
  for (int r = 0; r < opt_.nranks; ++r) world[static_cast<std::size_t>(r)] = r;
  new_group(std::move(world));  // id 0: the world communicator
}

Runtime::~Runtime() = default;

Runtime::Group& Runtime::group(int id) {
  std::lock_guard lk(groups_mu_);
  PARFFT_ASSERT(id >= 0 && id < static_cast<int>(groups_.size()));
  return groups_[static_cast<std::size_t>(id)];
}

int Runtime::new_group(std::vector<int> members) {
  std::lock_guard lk(groups_mu_);
  const int id = static_cast<int>(groups_.size());
  Group& g = groups_.emplace_back();
  g.id = id;
  g.members = std::move(members);
  g.contrib.assign(g.members.size(), nullptr);
  return id;
}

void Runtime::check_abort() const {
  if (aborted_.load(std::memory_order_relaxed))
    throw Error("parfft: rank aborted because another rank failed");
}

void Runtime::run(const std::function<void(Comm&)>& fn) {
  // Reset per-run state (a Runtime may host several runs in tests).
  aborted_.store(false);
  for (auto& rc : ranks_) {
    rc->inbox.clear();
    rc->vclock = 0;
  }
  // One RunTrace per run() call: each becomes its own Perfetto process.
  trace_run_ = obs::Session::global().begin_run(
      "smpi " + std::to_string(opt_.nranks) + " ranks", opt_.nranks,
      opt_.trace);

  std::mutex err_mu;
  std::exception_ptr first_error;
  std::vector<std::thread> threads;
  threads.reserve(ranks_.size());
  for (int r = 0; r < opt_.nranks; ++r) {
    threads.emplace_back([this, r, &fn, &err_mu, &first_error]() {
      Comm world(this, 0, r, r);
      try {
        fn(world);
      } catch (...) {
        {
          std::lock_guard lk(err_mu);
          if (!first_error) first_error = std::current_exception();
        }
        aborted_.store(true);
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

double Runtime::final_vtime(int rank) const {
  PARFFT_CHECK(rank >= 0 && rank < opt_.nranks, "rank out of range");
  return ranks_[static_cast<std::size_t>(rank)]->vclock;
}

// ---------------------------------------------------------------------------
// Comm: basics
// ---------------------------------------------------------------------------

int Comm::size() const {
  PARFFT_CHECK(valid(), "invalid communicator");
  return static_cast<int>(rt_->group(group_id_).members.size());
}

const RuntimeOptions& Comm::options() const { return rt_->options(); }
const net::CommCost& Comm::cost() const { return rt_->cost(); }

obs::RunTrace* Comm::trace_run() const {
  return rt_ ? rt_->trace_run_ : nullptr;
}

double Comm::vtime() const { return rt_->ctx(wrank_).vclock; }

void Comm::advance(double dt) {
  PARFFT_CHECK(dt >= 0, "cannot advance the clock backwards");
  rt_->ctx(wrank_).vclock += dt;
}

net::TransferMode Comm::mode_for(MemSpace space) const {
  if (space == MemSpace::Host) return net::TransferMode::Host;
  return rt_->options().gpu_aware ? net::TransferMode::GpuAware
                                  : net::TransferMode::Staged;
}

double Comm::tree_cost(double bytes, int group_size) const {
  if (group_size <= 1) return 0.0;
  const auto& m = rt_->options().machine;
  const double levels = std::ceil(std::log2(static_cast<double>(group_size)));
  const double wire = bytes / (m.nic_bw * m.single_flow_nic_fraction);
  return levels * (m.latency_inter + m.mpi_overhead + wire);
}

// ---------------------------------------------------------------------------
// Comm: point-to-point
// ---------------------------------------------------------------------------

namespace {
bool msg_matches(const std::vector<int>& members, int this_group_id,
                 int want_src_grank, int want_tag, int msg_src_wrank,
                 int msg_tag, int msg_group_id) {
  if (msg_group_id != this_group_id) return false;
  if (want_tag != kAnyTag && want_tag != msg_tag) return false;
  if (want_src_grank != kAnySource) {
    if (members[static_cast<std::size_t>(want_src_grank)] != msg_src_wrank)
      return false;
  }
  return true;
}

int grank_of(const std::vector<int>& members, int wrank) {
  for (std::size_t i = 0; i < members.size(); ++i)
    if (members[i] == wrank) return static_cast<int>(i);
  return -1;
}
}  // namespace

void Comm::send(const void* buf, std::size_t bytes, int dst, int tag,
                MemSpace space, bool timed) {
  send(buf, byte_type(bytes), dst, tag, space, timed);
}

void Comm::send(const void* buf, const Subarray& type, int dst, int tag,
                MemSpace space, bool timed) {
  // Blocking standard send: eager, so it completes locally; the extra
  // mpi_overhead models the completion handshake.
  (void)post(buf, type, dst, tag, space, timed, /*eager=*/true);
  if (timed) advance(rt_->options().machine.mpi_overhead);
}

Request Comm::isend(const void* buf, std::size_t bytes, int dst, int tag,
                    MemSpace space, bool timed) {
  return isend(buf, byte_type(bytes), dst, tag, space, timed);
}

Request Comm::isend(const void* buf, const Subarray& type, int dst, int tag,
                    MemSpace space, bool timed) {
  return post(buf, type, dst, tag, space, timed, /*eager=*/false);
}

namespace {
/// The contiguous layout of `t`'s elements: what an eager send buffers
/// and what a byte receive lands.
Subarray packed(const Subarray& t) {
  Subarray p = t;
  p.full = t.sub;
  p.off = {0, 0, 0};
  p.hstride = t.count() * static_cast<idx_t>(t.elem_bytes);
  return p;
}
}  // namespace

Request Comm::post(const void* buf, const Subarray& type, int dst, int tag,
                   MemSpace space, bool timed, bool eager) {
  PARFFT_CHECK(valid(), "invalid communicator");
  auto& g = rt_->group(group_id_);
  PARFFT_CHECK(dst >= 0 && dst < static_cast<int>(g.members.size()),
               "destination rank out of range");
  PARFFT_CHECK(tag >= 0, "tags must be non-negative");
  const int wdst = g.members[static_cast<std::size_t>(dst)];
  auto& me = rt_->ctx(wrank_);
  const double bytes = type.bytes();

  const double transport =
      timed ? rt_->cost().point_to_point(wrank_, wdst, bytes, mode_for(space))
            : 0.0;
  PARFFT_PARANOID_ASSERT(transport >= 0);
  Runtime::Message m;
  m.src_wrank = wrank_;
  m.group_id = group_id_;
  m.tag = tag;
  m.arrival = me.vclock + transport;
  Request req;
  req.kind = Request::Kind::Send;
  if (eager) {
    m.type = packed(type);
    m.payload.resize(static_cast<std::size_t>(bytes));
    if (!type.empty()) copy_subarray(buf, type, m.payload.data(), m.type);
    req.done = true;
  } else {
    m.type = type;
    m.data = buf;
    m.copied = std::make_shared<std::atomic<bool>>(false);
    req.copied = m.copied;
  }
  const double post_t0 = me.vclock;
  if (timed) me.vclock += rt_->options().machine.mpi_overhead;

  if (obs::RunTrace* run = trace_run(); run && timed) {
    std::vector<obs::SpanArg> args;
    if (run->with_args())
      args = {{"bytes", bytes}, {"dst", static_cast<double>(wdst)}};
    run->tracer.complete(wrank_, obs::Category::Send, "MPI_Isend", post_t0,
                         me.vclock - post_t0, std::move(args));
    run->metrics.counter("rank/" + std::to_string(wrank_) + "/bytes_sent")
        .add(bytes);
  }

  auto& dst_ctx = rt_->ctx(wdst);
  {
    std::lock_guard lk(dst_ctx.mu);
    dst_ctx.inbox.push_back(std::move(m));
  }
  dst_ctx.cv.notify_all();
  return req;
}

Status Comm::recv(void* buf, std::size_t capacity, int src, int tag,
                  MemSpace space) {
  Request req = irecv(buf, capacity, src, tag, space);
  return wait(req);
}

Status Comm::sendrecv(const void* sbuf, std::size_t sbytes, int dst,
                      int stag, void* rbuf, std::size_t rcapacity, int src,
                      int rtag, MemSpace space) {
  // Post the receive first, then the send: deadlock-free in exchange
  // patterns, like MPI_Sendrecv. The send completes once the peer's
  // receive has copied it, which its own wait does.
  Request rreq = irecv(rbuf, rcapacity, src, rtag, space);
  Request sreq = isend(sbuf, sbytes, dst, stag, space);
  const Status st = wait(rreq);
  wait(sreq);
  return st;
}

Request Comm::irecv(void* buf, std::size_t capacity, int src, int tag,
                    MemSpace space) {
  Request req = irecv(buf, byte_type(capacity), src, tag, space);
  req.any_size = true;
  return req;
}

Request Comm::irecv(void* buf, const Subarray& type, int src, int tag,
                    MemSpace space) {
  PARFFT_CHECK(valid(), "invalid communicator");
  PARFFT_CHECK(src == kAnySource ||
                   (src >= 0 && src < size()),
               "source rank out of range");
  Request req;
  req.kind = Request::Kind::Recv;
  req.buf = buf;
  req.type = type;
  req.src = src;
  req.tag = tag;
  req.space = space;
  return req;
}

Status Comm::wait(Request& req) {
  std::vector<Request> one(1);
  std::swap(one[0], req);
  const int idx = waitany(one);
  PARFFT_CHECK(idx == 0, "wait on an already-consumed request");
  std::swap(one[0], req);
  return req.status;
}

int Comm::waitany(std::vector<Request>& reqs) {
  PARFFT_CHECK(valid(), "invalid communicator");
  auto& g = rt_->group(group_id_);
  auto& me = rt_->ctx(wrank_);

  bool all_consumed = true;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (reqs[i].kind == Request::Kind::None || reqs[i].consumed) continue;
    all_consumed = false;
    if (reqs[i].done) {  // e.g. an eager send
      reqs[i].consumed = true;
      return static_cast<int>(i);
    }
  }
  if (all_consumed) return -1;

  const double wait_t0 = me.vclock;
  std::unique_lock lk(me.mu);
  for (;;) {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      Request& r = reqs[i];
      if (r.kind == Request::Kind::None || r.done || r.consumed) continue;
      if (r.kind == Request::Kind::Send) {
        // Completing a send never moves the clock: the receiver's wait
        // pays for the transfer.
        if (!r.copied->load(std::memory_order_acquire)) continue;
        r.done = r.consumed = true;
        return static_cast<int>(i);
      }
      // Match a pending receive against the inbox, preserving
      // per-(source, tag) arrival order (MPI non-overtaking).
      for (auto it = me.inbox.begin(); it != me.inbox.end(); ++it) {
        if (!msg_matches(g.members, group_id_, r.src, r.tag, it->src_wrank,
                         it->tag, it->group_id))
          continue;
        if (r.any_size)
          PARFFT_CHECK(it->type.bytes() <= r.type.bytes(),
                       "message larger than receive buffer");
        else
          PARFFT_CHECK(it->type.same_shape(r.type),
                       "irecv: matched send/recv datatypes disagree");
        Runtime::Message m = std::move(*it);
        me.inbox.erase(it);
        lk.unlock();
        // The copy runs outside the inbox lock, straight from the
        // sender's buffer (or an eager send's copy).
        const void* from = m.data ? m.data : m.payload.data();
        if (!m.type.empty())
          copy_subarray(from, m.type, r.buf,
                        r.any_size ? packed(m.type) : r.type);
        if (m.copied) {
          m.copied->store(true, std::memory_order_release);
          // Through the sender's lock, so a sender about to wait on its
          // condition variable cannot miss the wake-up.
          auto& sender = rt_->ctx(m.src_wrank);
          { std::lock_guard slk(sender.mu); }
          sender.cv.notify_all();
        }
        r.status.source = grank_of(g.members, m.src_wrank);
        r.status.tag = m.tag;
        r.status.bytes = static_cast<std::size_t>(m.type.bytes());
        r.done = true;
        r.consumed = true;
        PARFFT_PARANOID_ASSERT(m.arrival >= 0);
        me.vclock = std::max(me.vclock, m.arrival);
        PARFFT_PARANOID_ASSERT(me.vclock >= wait_t0);
        if (obs::RunTrace* run = trace_run(); run && me.vclock > wait_t0)
          run->tracer.complete(wrank_, obs::Category::Wait, "MPI_Waitany",
                               wait_t0, me.vclock - wait_t0);
        return static_cast<int>(i);
      }
    }
    me.cv.wait_for(lk, kPollInterval);
    rt_->check_abort();
  }
}

void Comm::waitall(std::vector<Request>& reqs) {
  while (waitany(reqs) != -1) {
  }
}

// ---------------------------------------------------------------------------
// Comm: generic collective machinery
// ---------------------------------------------------------------------------

void Comm::collective(const void* contribution,
                      const std::function<void(const ContribView&)>& leader,
                      const std::function<void(const ContribView&)>& reader,
                      const std::function<double(int, int)>& exit_cost) {
  PARFFT_CHECK(valid(), "invalid communicator");
  auto& g = rt_->group(group_id_);
  auto& me = rt_->ctx(wrank_);
  const int G = static_cast<int>(g.members.size());

  std::unique_lock lk(g.mu);
  // Wait until the previous collective on this communicator fully drained.
  while (g.departed != 0) {
    g.cv.wait_for(lk, kPollInterval);
    rt_->check_abort();
  }
  g.contrib[static_cast<std::size_t>(grank_)] = contribution;
  g.base_time = g.arrived == 0 ? me.vclock : std::max(g.base_time, me.vclock);
  ++g.arrived;
  if (g.arrived == G) {
    if (leader) {
      try {
        leader(g.contrib);
      } catch (...) {
        // Withdraw like an aborting member below, or the next run on this
        // Runtime completes its first collective one member early.
        g.contrib[static_cast<std::size_t>(grank_)] = nullptr;
        --g.arrived;
        throw;
      }
    }
    g.arrived = 0;
    g.departed = G;
    g.reading = G;
    ++g.generation;
    g.cv.notify_all();
  } else {
    const std::uint64_t my_gen = g.generation;
    while (g.generation == my_gen) {
      g.cv.wait_for(lk, kPollInterval);
      // Once the generation moved, readers may be using this rank's
      // contribution: finish the collective, abort at the next call.
      // Before that, withdraw it, or a late member leads on a dead object.
      if (g.generation == my_gen && rt_->aborted_.load()) {
        g.contrib[static_cast<std::size_t>(grank_)] = nullptr;
        --g.arrived;
        rt_->check_abort();
      }
    }
  }
  // Reader phase, outside the communicator lock: every rank copies into
  // its own buffers at the same time. The contributions stay alive and
  // unchanged until `departed` reaches 0 below: no member leaves, and none
  // can enter the next collective (which rewrites `contrib`), before then.
  if (reader) {
    lk.unlock();
    reader(g.contrib);
    lk.lock();
  }
  --g.reading;
  // The collective synchronizes to the latest entry clock (or to the clock
  // a settle_clocks leader fixed) and then charges the exit cost.
  const double cost = exit_cost ? exit_cost(grank_, G) : 0.0;
  me.vclock = g.base_time + cost;
  --g.departed;
  if (g.departed == 0) {
    g.cv.notify_all();
  } else {
    // Contributions are stack objects of the participating ranks; nobody
    // may leave (and destroy theirs) until every reader has finished, not
    // even to abort. Readers do not throw, so `reading` reaches 0.
    while (g.departed != 0) {
      g.cv.wait_for(lk, kPollInterval);
      if (g.reading == 0) rt_->check_abort();
    }
  }
  // Checked once the group has drained, so a failed check leaves the
  // communicator usable by the next run.
  PARFFT_PARANOID_ASSERT(cost >= 0);
  PARFFT_PARANOID_ASSERT(me.vclock >= 0);
}

void Comm::settle_clocks(
    const void* contribution,
    const std::function<double(const ContribView&)>& leader) {
  collective(
      contribution,
      [this, &leader](const ContribView& all) {
        rt_->group(group_id_).base_time = leader(all);
      },
      nullptr, nullptr);
}

namespace {
/// Records a Collective span covering [t0, now] on the calling rank.
void record_collective(Comm& c, const char* name, double t0) {
  if (obs::RunTrace* run = c.trace_run())
    run->tracer.complete(c.world_rank(), obs::Category::Collective, name, t0,
                         c.vtime() - t0);
}
}  // namespace

void Comm::barrier() {
  const double t0 = vtime();
  collective(nullptr, nullptr, nullptr,
             [this](int, int G) { return tree_cost(0, G); });
  record_collective(*this, "MPI_Barrier", t0);
}

void Comm::bcast(void* buf, std::size_t bytes, int root) {
  PARFFT_CHECK(root >= 0 && root < size(), "root out of range");
  const double t0 = vtime();
  struct C {
    void* buf;
  } mine{buf};
  collective(
      &mine,
      [root, bytes](const ContribView& all) {
        const void* src = static_cast<const C*>(all[static_cast<std::size_t>(root)])->buf;
        for (std::size_t r = 0; r < all.size(); ++r) {
          if (static_cast<int>(r) == root || bytes == 0) continue;
          std::memcpy(static_cast<const C*>(all[r])->buf, src, bytes);
        }
      },
      nullptr,
      [this, bytes](int, int G) { return tree_cost(static_cast<double>(bytes), G); });
  record_collective(*this, "MPI_Bcast", t0);
}

void Comm::allgather(const void* sendbuf, std::size_t bytes, void* recvbuf) {
  const double t0 = vtime();
  struct C {
    const void* s;
    void* r;
  } mine{sendbuf, recvbuf};
  const auto& machine = rt_->options().machine;
  collective(
      &mine, nullptr,
      [bytes, &mine](const ContribView& all) {
        // Reader phase: each rank assembles its own output from every
        // contribution (rank order == group order).
        if (bytes == 0) return;
        for (std::size_t j = 0; j < all.size(); ++j)
          std::memcpy(static_cast<std::byte*>(mine.r) + j * bytes,
                      static_cast<const C*>(all[j])->s, bytes);
      },
      [bytes, &machine](int, int G) {
        // Ring allgather: G-1 steps, one block per step.
        return (G - 1) *
               (machine.latency_inter + machine.mpi_overhead +
                static_cast<double>(bytes) /
                    (machine.nic_bw * machine.single_flow_nic_fraction));
      });
  record_collective(*this, "MPI_Allgather", t0);
}

void Comm::gather(const void* sendbuf, std::size_t bytes, void* recvbuf,
                  int root) {
  PARFFT_CHECK(root >= 0 && root < size(), "root out of range");
  const double t0 = vtime();
  struct C {
    const void* s;
    void* r;
  } mine{sendbuf, recvbuf};
  collective(
      &mine,
      [bytes, root](const ContribView& all) {
        if (bytes == 0) return;
        auto* dst = static_cast<std::byte*>(
            static_cast<const C*>(all[static_cast<std::size_t>(root)])->r);
        for (std::size_t j = 0; j < all.size(); ++j)
          std::memcpy(dst + j * bytes, static_cast<const C*>(all[j])->s,
                      bytes);
      },
      nullptr,
      [this, bytes](int, int G) {
        return tree_cost(static_cast<double>(bytes) * G / 2.0, G);
      });
  record_collective(*this, "MPI_Gather", t0);
}

void Comm::scatter(const void* sendbuf, std::size_t bytes, void* recvbuf,
                   int root) {
  PARFFT_CHECK(root >= 0 && root < size(), "root out of range");
  const double t0 = vtime();
  struct C {
    const void* s;
    void* r;
  } mine{sendbuf, recvbuf};
  collective(
      &mine,
      [bytes, root](const ContribView& all) {
        if (bytes == 0) return;
        const auto* src = static_cast<const std::byte*>(
            static_cast<const C*>(all[static_cast<std::size_t>(root)])->s);
        for (std::size_t j = 0; j < all.size(); ++j)
          std::memcpy(static_cast<const C*>(all[j])->r, src + j * bytes,
                      bytes);
      },
      nullptr,
      [this, bytes](int, int G) {
        return tree_cost(static_cast<double>(bytes) * G / 2.0, G);
      });
  record_collective(*this, "MPI_Scatter", t0);
}

Subarray byte_type(std::size_t bytes, std::size_t displ) {
  const auto n = static_cast<idx_t>(bytes);
  const auto at = static_cast<idx_t>(displ);
  return {{1, 1, at + n}, {1, 1, n}, {0, 0, at}, 1};
}

void copy_subarray(const void* src, const Subarray& st, void* dst,
                   const Subarray& rt) {
  PARFFT_ASSERT(st.same_shape(rt));
  const idx_t eb = static_cast<idx_t>(st.elem_bytes);
  for (idx_t h = 0; h < st.hcount; ++h) {
    const auto* s = static_cast<const std::byte*>(src) + h * st.hstride;
    auto* d = static_cast<std::byte*>(dst) + h * rt.hstride;
    for (idx_t a = 0; a < st.sub[0]; ++a)
      for (idx_t b = 0; b < st.sub[1]; ++b) {
        const idx_t so =
            (((a + st.off[0]) * st.full[1] + (b + st.off[1])) * st.full[2] +
             st.off[2]) * eb;
        const idx_t dofs =
            (((a + rt.off[0]) * rt.full[1] + (b + rt.off[1])) * rt.full[2] +
             rt.off[2]) * eb;
        std::memcpy(d + dofs, s + so,
                    static_cast<std::size_t>(st.sub[2] * eb));
      }
  }
}

namespace {
/// A rank's send row for `types`: one (peer, bytes) entry per non-empty
/// datatype, in peer order.
std::vector<std::pair<int, double>> row_of(const std::vector<Subarray>& types) {
  std::vector<std::pair<int, double>> row;
  for (std::size_t j = 0; j < types.size(); ++j)
    if (!types[j].empty())
      row.push_back({static_cast<int>(j), types[j].bytes()});
  return row;
}
}  // namespace

double Comm::exchange(const SendRow& row, net::CollectiveAlg alg,
                      MemSpace space, const Blocks* blocks) {
  const double t0 = vtime();
  struct C {
    const SendRow* row;
    const Blocks* blocks;
    double out_time;
  } mine{&row, blocks, 0.0};

  auto& g = rt_->group(group_id_);
  const net::TransferMode mode = mode_for(space);
  std::function<void(const ContribView&)> reader;
  if (blocks)
    reader = [&mine, me = static_cast<std::size_t>(grank_)](
                 const ContribView& all) {
      // This rank pulls its block from every sender.
      for (std::size_t j = 0; j < all.size(); ++j) {
        const Blocks& from = *static_cast<const C*>(all[j])->blocks;
        if (from.stypes[me].empty()) continue;
        copy_subarray(from.sbuf, from.stypes[me], mine.blocks->rbuf,
                      mine.blocks->rtypes[j]);
      }
    };
  collective(
      &mine,
      [&g, alg, mode, this](const ContribView& all) {
        // Leader: every check, then the cost model; the readers only copy.
        const std::size_t G = all.size();
        auto at = [&all](std::size_t i) {
          return const_cast<C*>(static_cast<const C*>(all[i]));
        };
        net::SendMatrix sends(G);
        for (std::size_t i = 0; i < G; ++i) {
          sends[i] = *at(i)->row;
          const Blocks* to = at(i)->blocks;
          if (!to) continue;
          for (std::size_t j = 0; j < G; ++j) {
            const Subarray& st = at(j)->blocks->stypes[i];
            const Subarray& rt = to->rtypes[j];
            PARFFT_CHECK(st.empty() ? rt.empty() : st.same_shape(rt),
                         std::string(to->call) +
                             ": matched send/recv datatypes disagree");
          }
        }
        const net::PhaseTimes times = rt_->cost().exchange(
            g.members, sends, alg, mode, rt_->options().flavor);
        for (std::size_t i = 0; i < G; ++i)
          at(i)->out_time = times.per_rank[i];
      },
      reader, [&mine](int, int) { return mine.out_time; });

  obs::RunTrace* run = trace_run();
  if (!run || !blocks) return mine.out_time;
  double sent = 0;
  int peers = 0;
  for (const auto& [dst, b] : row) {
    sent += b;
    if (dst != grank_) ++peers;
    run->metrics.observe("exchange/message_bytes", b);
  }
  std::vector<obs::SpanArg> args;
  if (run->with_args())
    args = {{"bytes_sent", sent}, {"peers", static_cast<double>(peers)}};
  // The span covers entry-to-exit virtual time, i.e. peer synchronization
  // plus the exchange itself -- the same interval the aggregate trace
  // books as communication.
  run->tracer.complete(wrank_, obs::Category::Exchange,
                       alg == net::CollectiveAlg::Alltoall    ? "MPI_Alltoall"
                       : alg == net::CollectiveAlg::Alltoallv ? "MPI_Alltoallv"
                                                              : "MPI_Alltoallw",
                       t0, vtime() - t0, std::move(args));
  run->metrics.counter("rank/" + std::to_string(wrank_) + "/bytes_sent")
      .add(sent);
  return mine.out_time;
}

void Comm::alltoallv(const void* sbuf, const std::vector<std::size_t>& scounts,
                     const std::vector<std::size_t>& sdispls, void* rbuf,
                     const std::vector<std::size_t>& rcounts,
                     const std::vector<std::size_t>& rdispls, MemSpace space,
                     net::CollectiveAlg alg) {
  const std::size_t G = static_cast<std::size_t>(size());
  PARFFT_CHECK(scounts.size() == G && sdispls.size() == G &&
                   rcounts.size() == G && rdispls.size() == G,
               "count/displacement arrays must match communicator size");
  PARFFT_CHECK(alg == net::CollectiveAlg::Alltoall ||
                   alg == net::CollectiveAlg::Alltoallv,
               "alltoallv supports the Alltoall/Alltoallv cost models");
  std::vector<Subarray> stypes(G), rtypes(G);
  for (std::size_t j = 0; j < G; ++j) {
    stypes[j] = byte_type(scounts[j], sdispls[j]);
    rtypes[j] = byte_type(rcounts[j], rdispls[j]);
  }
  const Blocks blocks{"alltoallv", sbuf, stypes, rbuf, rtypes};
  exchange(row_of(stypes), alg, space, &blocks);
}

void Comm::alltoallw(const void* sbuf, const std::vector<Subarray>& stypes,
                     void* rbuf, const std::vector<Subarray>& rtypes,
                     MemSpace space, net::CollectiveAlg alg) {
  const std::size_t G = static_cast<std::size_t>(size());
  PARFFT_CHECK(stypes.size() == G && rtypes.size() == G,
               "datatype arrays must match communicator size");
  PARFFT_CHECK(alg == net::CollectiveAlg::Alltoall ||
                   alg == net::CollectiveAlg::Alltoallv ||
                   alg == net::CollectiveAlg::Alltoallw,
               "alltoallw supports the Alltoall/Alltoallv/Alltoallw cost "
               "models");
  const Blocks blocks{"alltoallw", sbuf, stypes, rbuf, rtypes};
  exchange(row_of(stypes), alg, space, &blocks);
}

double Comm::settle_phase(
    const std::vector<std::pair<int, double>>& my_sends,
    net::CollectiveAlg alg, MemSpace space) {
  const double t0 = vtime();
  const double out_time = exchange(my_sends, alg, space, nullptr);
  if (obs::RunTrace* run = trace_run()) {
    // The clock jumped to base + out_time: book [t0, base) as peer
    // synchronization and [base, base + out_time) as the exchange proper,
    // matching the out_time the aggregate trace records for P2P phases.
    const double base = vtime() - out_time;
    if (base > t0)
      run->tracer.complete(wrank_, obs::Category::Wait, "phase sync", t0,
                           base - t0);
    double sent = 0;
    for (const auto& [dst, b] : my_sends) {
      (void)dst;
      sent += b;
    }
    std::vector<obs::SpanArg> args;
    if (run->with_args())
      args = {{"bytes_sent", sent},
              {"peers", static_cast<double>(my_sends.size())}};
    run->tracer.complete(wrank_, obs::Category::Exchange,
                         net::is_p2p(alg) ? "p2p phase" : "settled phase",
                         base, out_time, std::move(args));
  }
  return out_time;
}

Comm Comm::split(int color, int key) {
  struct C {
    int color, key, grank;
    int out_gid = -1;
    int out_grank = -1;
  } mine{color, key, grank_, -1, -1};

  auto& g = rt_->group(group_id_);
  collective(
      &mine,
      [&g, this](const ContribView& all) {
        // color -> sorted (key, parent grank) -> members.
        std::map<int, std::vector<std::pair<std::pair<int, int>, int>>> buckets;
        for (std::size_t r = 0; r < all.size(); ++r) {
          const C* c = static_cast<const C*>(all[r]);
          if (c->color < 0) continue;  // MPI_UNDEFINED analogue
          buckets[c->color].push_back(
              {{c->key, c->grank}, static_cast<int>(r)});
        }
        for (auto& [bucket_color, list] : buckets) {
          (void)bucket_color;
          std::sort(list.begin(), list.end());
          std::vector<int> members;
          members.reserve(list.size());
          for (const auto& e : list)
            members.push_back(g.members[static_cast<std::size_t>(e.second)]);
          const int gid = rt_->new_group(std::move(members));
          for (std::size_t pos = 0; pos < list.size(); ++pos) {
            C* c = const_cast<C*>(
                static_cast<const C*>(all[static_cast<std::size_t>(list[pos].second)]));
            c->out_gid = gid;
            c->out_grank = static_cast<int>(pos);
          }
        }
      },
      nullptr, [this](int, int G) { return tree_cost(16, G); });

  if (mine.out_gid < 0) return Comm{};
  return Comm(rt_, mine.out_gid, mine.out_grank, wrank_);
}

Comm Comm::create_group(const std::vector<int>& members) {
  for (std::size_t i = 1; i < members.size(); ++i)
    PARFFT_CHECK(members[i - 1] < members[i],
                 "group members must be ascending parent ranks");
  for (int m : members)
    PARFFT_CHECK(m >= 0 && m < size(), "group member out of range");
  bool in_group = false;
  int pos = -1;
  for (std::size_t i = 0; i < members.size(); ++i)
    if (members[i] == grank_) {
      in_group = true;
      pos = static_cast<int>(i);
    }
  const int color = in_group ? 0 : -1;
  Comm sub = split(color, pos);
  return sub;
}

}  // namespace parfft::smpi
