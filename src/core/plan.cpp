#include "core/plan.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "common/paranoid.hpp"
#include "core/simulate.hpp"
#include "fft/many.hpp"

namespace parfft::core {

namespace {
struct WireBox {
  idx_t lo[3];
  idx_t hi[3];
};
}  // namespace

std::vector<Box3> allgather_boxes(smpi::Comm& comm, const Box3& mine) {
  WireBox w{{mine.lo[0], mine.lo[1], mine.lo[2]},
            {mine.hi[0], mine.hi[1], mine.hi[2]}};
  std::vector<WireBox> all(static_cast<std::size_t>(comm.size()));
  comm.allgather(&w, sizeof(WireBox), all.data());
  std::vector<Box3> boxes(all.size());
  for (std::size_t r = 0; r < all.size(); ++r)
    boxes[r] = Box3{{all[r].lo[0], all[r].lo[1], all[r].lo[2]},
                    {all[r].hi[0], all[r].hi[1], all[r].hi[2]}};
  return boxes;
}

void charge(smpi::Comm& comm, Trace* trace, obs::Category cat,
            const char* name, double t, std::vector<obs::SpanArg> args) {
  comm.advance(t);
  if (trace != nullptr) trace->add(cat, name, t);
  if (obs::RunTrace* run = comm.trace_run(); run != nullptr && t > 0)
    run->tracer.complete(comm.world_rank(), cat, name, comm.vtime() - t, t,
                         std::move(args));
}

namespace {

/// `region` of the brick `local` as a datatype of T elements, repeated
/// over `batch` consecutive bricks.
template <typename T>
smpi::Subarray subarray_of(const Box3& local, const Box3& region, int batch) {
  smpi::Subarray s;
  s.full = {local.size(0), local.size(1), local.size(2)};
  s.sub = {region.size(0), region.size(1), region.size(2)};
  s.off = {region.lo[0] - local.lo[0], region.lo[1] - local.lo[1],
           region.lo[2] - local.lo[2]};
  s.elem_bytes = sizeof(T);
  s.hcount = batch;
  s.hstride = local.count() * static_cast<idx_t>(sizeof(T));
  return s;
}

/// This rank's datatypes of one reshape, one per peer (empty: no traffic):
/// each region it sends as a subarray of its `batch` source bricks, each
/// region it receives as one of its `batch` destination bricks. Every
/// reshape path builds its messages from these.
struct PeerTypes {
  std::vector<smpi::Subarray> send, recv;
};

template <typename T>
PeerTypes peer_types(const ReshapePlan& rp, int me, int batch) {
  // No path clears the destination first: the received regions must
  // cover every element of it exactly once.
  PARFFT_PARANOID_ASSERT(rp.recvs_tile(me));
  const auto R = static_cast<std::size_t>(rp.nranks());
  const Box3& from = rp.from()[static_cast<std::size_t>(me)];
  const Box3& to = rp.to()[static_cast<std::size_t>(me)];
  PeerTypes types{std::vector<smpi::Subarray>(R),
                  std::vector<smpi::Subarray>(R)};
  for (const Transfer& t : rp.sends(me))
    types.send[static_cast<std::size_t>(t.peer)] =
        subarray_of<T>(from, t.region, batch);
  for (const Transfer& t : rp.recvs(me))
    types.recv[static_cast<std::size_t>(t.peer)] =
        subarray_of<T>(to, t.region, batch);
  return types;
}

/// Charges Algorithm 1's pack kernel of a reshape on this rank and records
/// its fan-out. The GPU would pack into a send buffer; on the host the
/// blocks move once, receiver-side, so the kernel is priced, not run.
void charge_pack(smpi::Comm& comm, const ReshapePlan& rp, int batch,
                 std::size_t elem_bytes, Trace* trace) {
  const int me = comm.rank();
  const TransferRange sends = rp.sends(me);
  charge(comm, trace, obs::Category::Pack, "pack",
         pack_kernel_time(comm.options().device,
                          rp.from()[static_cast<std::size_t>(me)], sends,
                          batch, elem_bytes));
  if (obs::RunTrace* run = comm.trace_run())
    run->metrics.observe("reshape/fanout", static_cast<double>(sends.size()));
}

/// Charges the matching unpack kernel, priced like charge_pack().
void charge_unpack(smpi::Comm& comm, const ReshapePlan& rp, int batch,
                   std::size_t elem_bytes, Trace* trace) {
  const int me = comm.rank();
  charge(comm, trace, obs::Category::Unpack, "unpack",
         pack_kernel_time(comm.options().device,
                          rp.to()[static_cast<std::size_t>(me)],
                          rp.recvs(me), batch, elem_bytes));
}

}  // namespace

template <typename T>
void packed_reshape(smpi::Comm& comm, const ReshapePlan& rp, int batch,
                    const T* in, T* out, net::CollectiveAlg alg,
                    Trace* trace) {
  const PeerTypes types = peer_types<T>(rp, comm.rank(), batch);
  charge_pack(comm, rp, batch, sizeof(T), trace);
  const double t0 = comm.vtime();
  comm.alltoallw(in, types.send, out, types.recv, smpi::MemSpace::Device,
                 alg);
  if (trace != nullptr)
    trace->add(obs::Category::Exchange,
               alg == net::CollectiveAlg::Alltoall ? "MPI_Alltoall"
                                                   : "MPI_Alltoallv",
               comm.vtime() - t0);
  charge_unpack(comm, rp, batch, sizeof(T), trace);
}

template void packed_reshape<cplx>(smpi::Comm&, const ReshapePlan&, int,
                                   const cplx*, cplx*, net::CollectiveAlg,
                                   Trace*);
template void packed_reshape<double>(smpi::Comm&, const ReshapePlan&, int,
                                     const double*, double*,
                                     net::CollectiveAlg, Trace*);

Plan3D::Plan3D(smpi::Comm& comm, const std::array<int, 3>& n,
               const Box3& inbox, const Box3& outbox, const PlanOptions& opt)
    : comm_(comm), inbox_(inbox), outbox_(outbox),
      dev_(comm.options().device) {
  auto in_all = allgather_boxes(comm, inbox);
  auto out_all = allgather_boxes(comm, outbox);
  plan_ = build_stages(n, comm.size(), std::move(in_all), std::move(out_all),
                       opt, comm.options().machine);
  const idx_t work = plan_.max_work_elements(comm.rank()) * opt.batch;
  work_.reserve(static_cast<std::size_t>(work));
  work2_.reserve(static_cast<std::size_t>(work));
}

Plan3D::Plan3D(smpi::Comm& comm, StagePlan plan, const Box3& inbox,
               const Box3& outbox)
    : comm_(comm), plan_(std::move(plan)), inbox_(inbox), outbox_(outbox),
      dev_(comm.options().device) {
  PARFFT_CHECK(plan_.nranks == comm.size(),
               "stage plan was built for a different communicator size");
  const idx_t work =
      plan_.max_work_elements(comm.rank()) * plan_.options.batch;
  work_.reserve(static_cast<std::size_t>(work));
  work2_.reserve(static_cast<std::size_t>(work));
}

void Plan3D::execute(const cplx* in, cplx* out, dft::Direction dir) {
  const int batch = plan_.options.batch;
  const bool overlap = batch > 1 && plan_.options.overlap_batches &&
                       !plan_.stages.empty();
  const double entry = comm_.vtime();
  // A reshape at either end moves the data straight from `in` or into
  // `out`; an FFT stage there works on a copy in work_. With in == out,
  // the first reshape has finished reading `in` on every rank before it
  // returns: a collective's members leave only after every reader copied,
  // and a rendezvous send completes before waitany returns. The last
  // reshape, writing `out`, is a later stage, so it cannot overlap them.
  const std::size_t n_stages = plan_.stages.size();
  auto is_reshape = [this](std::size_t i) {
    return plan_.stages[i].kind == Stage::Kind::Reshape;
  };
  const bool direct_out = n_stages >= 2 && is_reshape(n_stages - 1);
  if (n_stages == 0 || !is_reshape(0))
    work_.assign(in, in + input_elements());

  obs::RunTrace* run = comm_.trace_run();
  const int wrank = comm_.world_rank();
  if (run != nullptr) {
    std::vector<obs::SpanArg> args;
    if (run->with_args())
      args = {{"n", std::to_string(plan_.n[0]) + "x" +
                        std::to_string(plan_.n[1]) + "x" +
                        std::to_string(plan_.n[2])},
              {"batch", static_cast<double>(batch)},
              {"backend", backend_name(plan_.options.backend)},
              {"direction",
               dir == dft::Direction::Forward ? "forward" : "backward"}};
    run->tracer.begin(wrank, obs::Category::Transform, "fft3d",
                      comm_.vtime(), std::move(args));
  }

  for (std::size_t i = 0; i < n_stages; ++i) {
    const Stage& stage = plan_.stages[i];
    if (stage.kind == Stage::Kind::Fft) {
      run_fft(i, dir);
      continue;
    }
    if (run != nullptr)
      run->tracer.begin(wrank, obs::Category::Reshape, "reshape",
                        comm_.vtime());
    const bool to_out = direct_out && i == n_stages - 1;
    const cplx* src = i == 0 ? in : work_.data();
    if (!to_out)
      work2_.resize(static_cast<std::size_t>(
          stage.reshape.to()[static_cast<std::size_t>(comm_.rank())].count() *
          batch));
    cplx* dst = to_out ? out : work2_.data();
    if (backend_is_datatype(plan_.options.backend)) {
      run_reshape_datatype(stage, src, dst);
    } else if (backend_is_p2p(plan_.options.backend)) {
      run_reshape_p2p(stage, tag_counter_, src, dst);
    } else {
      run_reshape_collective(stage, src, dst);
    }
    if (!to_out) work_.swap(work2_);
    if (run != nullptr) run->tracer.end(wrank, comm_.vtime());
    tag_counter_ += 1;
  }

  // Settle the pipelined-batch charge before the (once-per-batch) scaling
  // pass so normalization lands after the overlapped window. The stages'
  // spans were recorded back to back; fit them into that window. A span
  // longer than the window (an FFT plan's first-call spike, which the
  // pipeline does not charge) cannot fit, and fft3d stretches to cover it.
  double span_end = 0;
  if (overlap) {
    overlap_settle(entry);
    if (run != nullptr)
      span_end = run->tracer.fit_children(wrank, comm_.vtime());
  }

  if (dir == dft::Direction::Backward &&
      plan_.options.scaling == Scaling::Full) {
    const double inv = 1.0 / static_cast<double>(plan_.total_elements());
    cplx* data = direct_out ? out : work_.data();
    for (idx_t e = 0; e < output_elements(); ++e) data[e] *= inv;
    const double bytes =
        static_cast<double>(outbox_.count()) * batch * sizeof(cplx);
    charge(comm_, &trace_, obs::Category::Scale, "scale",
           gpu::pointwise_cost(dev_, bytes));
  }

  if (run != nullptr)
    run->tracer.end(wrank, std::max(span_end, comm_.vtime()));

  if (direct_out) return;
  PARFFT_ASSERT(static_cast<idx_t>(work_.size()) == output_elements());
  if (output_elements() > 0)
    std::memcpy(out, work_.data(),
                static_cast<std::size_t>(output_elements()) * sizeof(cplx));
}

void Plan3D::overlap_settle(double entry) {
  // The stages above charged sequential time; every member now leaves at
  // base + t instead, base being the latest execute-entry clock and t the
  // Fig. 13 pipeline the simulator prices. Plan, group, batch and cost
  // model are fixed for the plan's life, so the first settle's leader
  // prices t once, on the members' world ranks, for every member's plan.
  struct C {
    double entry;
    int wrank;
    std::optional<double>* t;
  } mine{entry, comm_.world_rank(), &overlap_time_};
  comm_.settle_clocks(&mine, [this](const smpi::Comm::ContribView& all) {
    auto at = [&all](std::size_t r) { return static_cast<const C*>(all[r]); };
    double base = 0;
    for (std::size_t r = 0; r < all.size(); ++r)
      base = std::max(base, at(r)->entry);
    if (!overlap_time_) {
      std::vector<int> group(all.size());
      for (std::size_t r = 0; r < all.size(); ++r) group[r] = at(r)->wrank;
      const net::TransferMode mode = comm_.options().gpu_aware
                                         ? net::TransferMode::GpuAware
                                         : net::TransferMode::Staged;
      const double t = overlapped_batch_time(plan_, dev_, comm_.cost(), mode,
                                             comm_.options().flavor,
                                             plan_.options.batch, group);
      for (std::size_t r = 0; r < all.size(); ++r) *at(r)->t = t;
    }
    return base + *overlap_time_;
  });
}

void Plan3D::run_reshape_collective(const Stage& stage, const cplx* src,
                                    cplx* dst) {
  packed_reshape(comm_, stage.reshape, plan_.options.batch, src, dst,
                 to_alg(plan_.options.backend), &trace_);
}

void Plan3D::run_reshape_datatype(const Stage& stage, const cplx* src,
                                  cplx* dst) {
  // Algorithm 2: no packing; MPI derived sub-array datatypes describe the
  // strided regions of one brick directly, so a batch is `batch` calls
  // (the datatype rules of stage_kernels()).
  const ReshapePlan& rp = stage.reshape;
  const int me = comm_.rank();
  const idx_t from = rp.from()[static_cast<std::size_t>(me)].count();
  const idx_t to = rp.to()[static_cast<std::size_t>(me)].count();
  const PeerTypes types = peer_types<cplx>(rp, me, 1);
  const double t0 = comm_.vtime();
  for (int b = 0; b < plan_.options.batch; ++b)
    comm_.alltoallw(src + b * from, types.send, dst + b * to, types.recv,
                    space_);
  trace_.add(obs::Category::Exchange, "MPI_Alltoallw", comm_.vtime() - t0);
}

void Plan3D::run_reshape_p2p(const Stage& stage, int tag_base,
                             const cplx* src, cplx* dst) {
  const ReshapePlan& rp = stage.reshape;
  const int me = comm_.rank();
  const int batch = plan_.options.batch;
  const bool blocking = plan_.options.backend == Backend::P2PBlocking;
  const PeerTypes types = peer_types<cplx>(rp, me, batch);
  charge_pack(comm_, rp, batch, sizeof(cplx), &trace_);

  // Post receives (MPI_Irecv), then sends; data transport is untimed here
  // -- the whole phase is settled with the congestion-aware model below.
  // Every block lands straight in its place in the destination bricks.
  std::vector<smpi::Request> reqs;
  for (const Transfer& t : rp.recvs(me))
    if (t.peer != me)
      reqs.push_back(comm_.irecv(dst,
                                 types.recv[static_cast<std::size_t>(t.peer)],
                                 t.peer, tag_base, space_));
  std::vector<std::pair<int, double>> phase_sends;
  for (const Transfer& t : rp.sends(me)) {
    const smpi::Subarray& st = types.send[static_cast<std::size_t>(t.peer)];
    phase_sends.push_back({t.peer, st.bytes()});
    if (t.peer == me) {
      smpi::copy_subarray(src, st, dst,
                          types.recv[static_cast<std::size_t>(me)]);
    } else if (blocking) {
      comm_.send(src, st, t.peer, tag_base, space_, /*timed=*/false);
    } else {
      reqs.push_back(comm_.isend(src, st, t.peer, tag_base, space_,
                                 /*timed=*/false));
    }
  }
  // MPI_Waitany until every receive landed and every rendezvous send was
  // copied out of `src`, which the caller may reuse or overwrite next.
  while (comm_.waitany(reqs) != -1) {
  }
  trace_.add(obs::Category::Exchange, backend_name(plan_.options.backend),
             comm_.settle_phase(phase_sends, to_alg(plan_.options.backend),
                                space_));
  charge_unpack(comm_, rp, batch, sizeof(cplx), &trace_);
}

void Plan3D::run_fft(std::size_t stage, dft::Direction dir) {
  const int me = comm_.rank();
  const Box3& box = plan_.stages[stage].boxes[static_cast<std::size_t>(me)];
  const int batch = plan_.options.batch;
  const std::array<int, 3> dims = {static_cast<int>(box.size(0)),
                                   static_cast<int>(box.size(1)),
                                   static_cast<int>(box.size(2))};
  for (const Kernel& k : stage_kernels(plan_, stage, me, batch, dev_)) {
    double t = k.seconds;
    std::vector<obs::SpanArg> args;
    if (k.kind == KernelKind::Fft) {
      // A Reorder kernel's transposes only change the memory layout the
      // GPU FFT reads; on the host every axis runs on the brick in place.
      for (int b = 0; b < batch; ++b)
        dft::fft3d_axis(work_.data() + b * box.count(), dims, k.axis, dir);
      t = fft_cache_.fft_call(dev_, k.len, k.lines, k.strided);
      if (obs::RunTrace* run = comm_.trace_run(); run && run->with_args())
        args = {{"axis", static_cast<double>(k.axis)},
                {"len", static_cast<double>(k.len)},
                {"batches", static_cast<double>(k.lines)}};
    }
    charge(comm_, &trace_, kernel_category(k.kind), kernel_name(k), t,
           std::move(args));
  }
}

}  // namespace parfft::core
