/// \file fft_exec.cpp
/// `fft_exec`: real data through core::Plan3D on the smpi::Runtime rank
/// threads -- 128^3 complex bricks, forward and backward, with the
/// Alltoallv and P2PNonBlocking backends. The only workload where the fft
/// engine, pack/transpose and simmpi data movement do the work.
///
/// Input: a seeded sum of plane waves, whose forward transform is N^3 * a_k
/// at each chosen wavenumber k and zero elsewhere.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <mutex>
#include <numbers>
#include <string>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "core/pack.hpp"
#include "core/plan.hpp"
#include "core/simulate.hpp"
#include "fft/many.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace parfft;
using parfft::core::Box3;

namespace {

constexpr int kWaves = 4;
constexpr int kReplayTag = 1 << 28;

int grid(bool tiny) { return tiny ? 16 : 128; }

int rank_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

struct Wave {
  std::array<int, 3> k{};
  cplx a;
};

std::vector<Wave> draw_waves(std::uint64_t seed, int n) {
  Rng rng(Rng(seed).split(3).seed());
  std::vector<Wave> w;
  while (static_cast<int>(w.size()) < kWaves) {
    Wave v;
    for (int& c : v.k) c = static_cast<int>(rng.uniform_int(0, n - 1));
    v.a = rng.complex_uniform();
    bool dup = std::abs(v.a) < 0.1;
    for (const Wave& u : w) dup = dup || u.k == v.k;
    if (!dup) w.push_back(v);
  }
  return w;
}

/// The input restricted to `box`, row-major.
std::vector<cplx> plane_waves(const std::vector<Wave>& waves, int n,
                              const Box3& box) {
  std::vector<cplx> out(static_cast<std::size_t>(box.count()), cplx{});
  const double w = 2 * std::numbers::pi / n;
  for (const Wave& v : waves) {
    std::array<std::vector<cplx>, 3> e;
    for (int d = 0; d < 3; ++d)
      for (idx_t i = box.lo[d]; i <= box.hi[d]; ++i)
        e[static_cast<std::size_t>(d)].push_back(
            std::polar(1.0, w * static_cast<double>(
                                    (v.k[static_cast<std::size_t>(d)] * i) % n)));
    std::size_t idx = 0;
    for (const cplx& e0 : e[0])
      for (const cplx& e1 : e[1]) {
        const cplx p = v.a * e0 * e1;
        for (const cplx& e2 : e[2]) out[idx++] += p * e2;
      }
  }
  return out;
}

/// Largest deviation of a forward transform on `box` from the expected
/// spikes of N^3 * a_k, relative to N^3.
double spike_error(const std::vector<Wave>& waves, int n, const Box3& box,
                   const cplx* data) {
  const double n3 = static_cast<double>(n) * n * n;
  double err = 0;
  std::size_t idx = 0;
  for (idx_t i0 = box.lo[0]; i0 <= box.hi[0]; ++i0)
    for (idx_t i1 = box.lo[1]; i1 <= box.hi[1]; ++i1)
      for (idx_t i2 = box.lo[2]; i2 <= box.hi[2]; ++i2, ++idx) {
        cplx expect{};
        for (const Wave& v : waves)
          if (v.k[0] == i0 && v.k[1] == i1 && v.k[2] == i2) expect = n3 * v.a;
        err = std::max(err, std::abs(data[idx] - expect) / n3);
      }
  return err;
}

double max_abs_diff(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  double m = 0;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

void append_kernels(std::vector<double>& v, const core::Trace& t) {
  const core::KernelTimes k = t.kernels();
  v.insert(v.end(), {k.fft, k.pack, k.unpack, k.comm, k.scale,
                     static_cast<double>(t.calls().size())});
}

/// Rounds repeat the same transforms, but the rank clocks keep growing,
/// so durations taken as clock differences may move in the last bits.
bool same_round(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::abs(a[i] - b[i]) > 1e-9 * std::max(std::abs(a[i]), std::abs(b[i])))
      return false;
  return true;
}

core::PlanOptions plan_options(core::Backend b) {
  core::PlanOptions opt;
  opt.decomp = core::Decomposition::Pencil;
  opt.backend = b;
  opt.scaling = core::Scaling::Full;
  return opt;
}

smpi::RuntimeOptions runtime_options(int ranks) {
  smpi::RuntimeOptions ro;
  ro.nranks = ranks;
  return ro;
}

/// Replays, on this rank, the public sub-calls one execute() made: the
/// per-axis FFTs, pack and unpack of every reshape region and the
/// reshape's data movement through Comm. Rank 0 records them as children
/// of span `parent`.
void replay_execute(smpi::Comm& comm, const core::StagePlan& plan,
                    dft::Direction dir, Tracer* t, int parent,
                    int& tag) {
  const int me = comm.rank();
  const int R = comm.size();
  const bool p2p = core::backend_is_p2p(plan.options.backend);
  std::vector<cplx> a, b;
  auto timed = [&](const std::string& name, const std::string& layer,
                   auto&& fn) {
    const double t0 = now_s();
    fn();
    if (t != nullptr) t->add(name, layer, t0, now_s() - t0, parent);
  };
  for (const core::Stage& s : plan.stages) {
    if (s.kind == core::Stage::Kind::Fft) {
      const Box3& box = s.boxes[static_cast<std::size_t>(me)];
      if (box.empty()) continue;
      a.assign(static_cast<std::size_t>(box.count()), cplx{1.0, 0.5});
      const std::array<int, 3> dims = {static_cast<int>(box.size(0)),
                                       static_cast<int>(box.size(1)),
                                       static_cast<int>(box.size(2))};
      for (int axis : s.axes)
        timed("fft.fft3d_axis", "fft",
              [&] { dft::fft3d_axis(a.data(), dims, axis, dir); });
      continue;
    }
    const core::ReshapePlan& rp = s.reshape;
    const Box3& from = rp.from()[static_cast<std::size_t>(me)];
    const Box3& to = rp.to()[static_cast<std::size_t>(me)];
    a.assign(static_cast<std::size_t>(std::max<idx_t>(from.count(), 1)), cplx{});
    b.assign(static_cast<std::size_t>(std::max<idx_t>(rp.max_send_elements(me), 1)),
             cplx{});
    timed("core.pack", "core", [&] {
      idx_t off = 0;
      for (const core::Transfer& tr : rp.sends(me)) {
        core::pack_box(a.data(), from, tr.region, b.data() + off);
        off += tr.region.count();
      }
    });
    std::vector<cplx> recv(
        static_cast<std::size_t>(std::max<idx_t>(rp.max_recv_elements(me), 1)));
    std::vector<std::size_t> sc(static_cast<std::size_t>(R), 0),
        sd(static_cast<std::size_t>(R), 0), rc(static_cast<std::size_t>(R), 0),
        rd(static_cast<std::size_t>(R), 0);
    idx_t off = 0;
    for (const core::Transfer& tr : rp.sends(me)) {
      sc[static_cast<std::size_t>(tr.peer)] =
          static_cast<std::size_t>(tr.region.count()) * sizeof(cplx);
      sd[static_cast<std::size_t>(tr.peer)] =
          static_cast<std::size_t>(off) * sizeof(cplx);
      off += tr.region.count();
    }
    off = 0;
    for (const core::Transfer& tr : rp.recvs(me)) {
      rc[static_cast<std::size_t>(tr.peer)] =
          static_cast<std::size_t>(tr.region.count()) * sizeof(cplx);
      rd[static_cast<std::size_t>(tr.peer)] =
          static_cast<std::size_t>(off) * sizeof(cplx);
      off += tr.region.count();
    }
    if (!p2p) {
      timed("simmpi.alltoallv", "simmpi", [&] {
        comm.alltoallv(b.data(), sc, sd, recv.data(), rc, rd,
                       smpi::MemSpace::Device,
                       core::to_alg(plan.options.backend));
      });
    } else {
      timed("simmpi.p2p", "simmpi", [&] {
        std::vector<smpi::Request> reqs;
        std::vector<std::pair<int, double>> phase;
        for (int peer = 0; peer < R; ++peer) {
          const std::size_t p = static_cast<std::size_t>(peer);
          if (peer != me && rc[p] > 0)
            reqs.push_back(comm.irecv(reinterpret_cast<char*>(recv.data()) + rd[p],
                                      rc[p], peer, tag, smpi::MemSpace::Device));
        }
        for (int peer = 0; peer < R; ++peer) {
          const std::size_t p = static_cast<std::size_t>(peer);
          if (sc[p] == 0) continue;
          phase.push_back({peer, static_cast<double>(sc[p])});
          if (peer != me)
            (void)comm.isend(reinterpret_cast<const char*>(b.data()) + sd[p],
                             sc[p], peer, tag, smpi::MemSpace::Device, false);
        }
        while (comm.waitany(reqs) != -1) {
        }
        comm.settle_phase(phase, core::to_alg(plan.options.backend),
                          smpi::MemSpace::Device);
      });
      ++tag;
    }
    a.assign(static_cast<std::size_t>(std::max<idx_t>(to.count(), 1)), cplx{});
    timed("core.unpack", "core", [&] {
      idx_t uoff = 0;
      for (const core::Transfer& tr : rp.recvs(me)) {
        core::unpack_box(recv.data() + uoff, to, tr.region, a.data());
        uoff += tr.region.count();
      }
    });
  }
}

/// One fft_exec problem: the seeded plane-wave input on `ranks` bricks.
struct Problem {
  int n = 0;
  int ranks = 0;
  std::array<int, 3> dims{};
  std::vector<Box3> boxes;
  std::vector<Wave> waves;
  std::vector<std::vector<cplx>> inputs;  ///< per rank, on its brick
};

Problem make_problem(std::uint64_t seed, bool tiny, int ranks) {
  Problem p;
  p.n = grid(tiny);
  p.ranks = ranks;
  p.dims = {p.n, p.n, p.n};
  p.boxes = core::brick_layout(p.dims, ranks);
  p.waves = draw_waves(seed, p.n);
  for (const Box3& b : p.boxes) p.inputs.push_back(plane_waves(p.waves, p.n, b));
  return p;
}

constexpr std::array<core::Backend, 2> kBackends = {
    core::Backend::Alltoallv, core::Backend::P2PNonBlocking};

/// Set-up on one rank: both plans' construction and one warm-up forward
/// transform per plan (the first call allocates the plan's work buffers).
void set_up(smpi::Comm& comm, const Problem& p, std::vector<core::Plan3D>& plans,
            std::vector<cplx>& scratch) {
  const std::size_t mi = static_cast<std::size_t>(comm.rank());
  for (core::Backend b : kBackends)
    plans.emplace_back(comm, p.dims, p.boxes[mi], p.boxes[mi], plan_options(b));
  for (core::Plan3D& plan : plans) {
    plan.execute(p.inputs[mi].data(), scratch.data(), dft::Direction::Forward);
    plan.trace().clear();
  }
  comm.barrier();
}

/// Wall time of runtime start plus set_up, on a throw-away runtime.
double timed_set_up(const Problem& p) {
  const double t0 = now_s();
  smpi::Runtime rt(runtime_options(p.ranks));
  rt.run([&](smpi::Comm& comm) {
    std::vector<core::Plan3D> plans;
    std::vector<cplx> scratch(static_cast<std::size_t>(
        p.boxes[static_cast<std::size_t>(comm.rank())].count()));
    set_up(comm, p, plans, scratch);
  });
  return now_s() - t0;
}

/// What one session of rounds measured.
struct Session {
  PassStats st;
  std::vector<std::vector<double>> round_ops;  ///< rank 0's transform times
  std::vector<double> round_op_seconds;        ///< their sum per round
  double setup = 0;    ///< the session's own runtime start and set_up
  std::string digest;  ///< virtual times of every rank's first round
};

/// Runs rounds of the four transforms (both backends, forward and
/// backward) on a fresh runtime while `seconds` last, at least one, and
/// checks every transform. Failed checks go to `out`.
Session run_session(const Problem& p, double seconds, Outcome& out,
                    Tracer* tracer) {
  const int R = p.ranks;
  Session ses;
  std::vector<std::uint64_t> rank_failures(static_cast<std::size_t>(R), 0);
  std::vector<std::vector<std::vector<double>>> rank_rounds(
      static_cast<std::size_t>(R));
  std::vector<std::string> notes;
  std::mutex notes_mu;
  const double session0 = now_s();
  smpi::Runtime rt(runtime_options(R));
  rt.run([&](smpi::Comm& comm) {
    const int me = comm.rank();
    const std::size_t mi = static_cast<std::size_t>(me);
    const Box3& box = p.boxes[mi];
    const std::vector<cplx>& input = p.inputs[mi];
    std::vector<cplx> spec(static_cast<std::size_t>(box.count())),
        back(static_cast<std::size_t>(box.count()));
    std::vector<core::Plan3D> plans;
    set_up(comm, p, plans, spec);
    if (me == 0) ses.setup = now_s() - session0;

    Budget budget(seconds);
    int tag = kReplayTag;
    int more = 1;
    while (more != 0) {
      const double r0 = now_s();
      if (me == 0) ses.round_ops.emplace_back();
      std::vector<double> round_vt;
      for (core::Plan3D& plan : plans) {
        for (dft::Direction dir : {dft::Direction::Forward, dft::Direction::Backward}) {
          const bool fwd = dir == dft::Direction::Forward;
          plan.trace().clear();
          comm.barrier();
          const double t0 = now_s();
          plan.execute(fwd ? input.data() : spec.data(),
                       fwd ? spec.data() : back.data(), dir);
          comm.barrier();
          const double dt = now_s() - t0;
          int id = -1;
          if (me == 0) {
            ses.round_ops.back().push_back(dt);
            ses.st.op_seconds += dt;
            ++ses.st.ops;
            if (tracer != nullptr)
              id = tracer->add("core.plan3d_execute", "core", t0, dt);
          }
          if (tracer != nullptr) {
            replay_execute(comm, plan.stage_plan(), dir,
                           me == 0 ? tracer : nullptr, id, tag);
            comm.barrier();
          }
          append_kernels(round_vt, plan.trace());
          const double err = fwd ? spike_error(p.waves, p.n, box, spec.data())
                                 : max_abs_diff(back, input);
          const double tol = fwd ? 1e-9 : 1e-10;
          if (!(err <= tol)) {
            ++rank_failures[mi];
            std::lock_guard<std::mutex> lk(notes_mu);
            notes.push_back(std::string("fft_exec ") +
                            core::backend_name(plan.stage_plan().options.backend) +
                            (fwd ? " forward spikes" : " round trip") +
                            " off by " + fmt(err) + " on rank " +
                            std::to_string(me) + " of " + std::to_string(R));
          }
        }
      }
      rank_rounds[mi].push_back(std::move(round_vt));
      if (me == 0) {
        budget.round_done(now_s() - r0);
        double round_time = 0;
        for (double t : ses.round_ops.back()) round_time += t;
        ses.round_op_seconds.push_back(round_time);
        more = budget.another() ? 1 : 0;
      }
      comm.bcast(&more, sizeof more, 0);
    }
  });

  for (std::uint64_t f : rank_failures) out.failed += f;
  for (const std::string& s : notes) out.note("CHECK FAILED: " + s);
  // Every round repeats the same transforms; round 0 of every rank is the
  // digest.
  Digest d;
  bool repeated = true;
  for (const std::vector<std::vector<double>>& rounds_of_rank : rank_rounds) {
    for (const std::vector<double>& r : rounds_of_rank)
      repeated = repeated && same_round(r, rounds_of_rank.front());
    d.add(rounds_of_rank.front());
  }
  if (!repeated) {
    ++out.mismatches;
    out.fail("fft_exec: a repeated round charged different virtual times");
  }
  ses.digest = d.hex();
  return ses;
}

}  // namespace

PassStats run_fft_exec(const Options& o, double seconds, Outcome& out,
                       Tracer* tracer) {
  const Problem p = make_problem(o.seed, o.tiny, rank_count());
  // Set-up: runtime start, both plans' construction and their warm-up
  // transforms, on throw-away runtimes before and after the measured
  // session (so the repeats see the host at two moments) and once for the
  // session itself; the median is reported.
  std::vector<double> setups;
  for (int rep = 0; rep < 4; ++rep) setups.push_back(timed_set_up(p));
  const Session ses = run_session(p, seconds, out, tracer);
  setups.push_back(ses.setup);
  for (int rep = 0; rep < 4; ++rep) setups.push_back(timed_set_up(p));
  out.attempted += ses.st.ops;
  out.pass_digests.push_back(ses.digest);

  if (tracer == nullptr) {
    // Throughput and quantiles over the fastest eighth of the rounds.
    const std::vector<std::size_t> fast = fastest_eighth(ses.round_op_seconds);
    std::vector<double> kept;
    double kept_seconds = 0;
    for (std::size_t r : fast) {
      kept.insert(kept.end(), ses.round_ops[r].begin(), ses.round_ops[r].end());
      kept_seconds += ses.round_op_seconds[r];
    }
    out.end_to_end.set("ops_per_s",
                       static_cast<double>(kept.size()) / kept_seconds, "1/s");
    out.end_to_end.set("op_p50_ms", 1e3 * median(kept), "ms");
    out.end_to_end.set("op_p90_ms", 1e3 * quantile(kept, 0.9), "ms");
    out.end_to_end.set("setup_s", median(setups), "s");
    out.note("fft_exec: " + std::to_string(p.ranks) + " ranks, " +
             std::to_string(p.n) + "^3, " +
             std::to_string(ses.round_op_seconds.size()) + " rounds, " +
             std::to_string(kept.size()) +
             " transforms timed in the fastest eighth, " +
             std::to_string(setups.size()) + " set-ups");
  }
  return ses.st;
}

void reference_fft_exec(const Options& o, Outcome& out) {
  const Session ses = run_session(
      make_problem(kReferenceSeed, o.tiny, kReferenceRanks), 0, out, nullptr);
  out.digests.push_back(
      {"vtime.r" + std::to_string(kReferenceRanks), ses.digest});
}

void fft_layer_suite(const Options& o, Outcome& out) {
  const int n = grid(o.tiny);
  const int R = rank_count();
  const std::array<int, 3> dims{n, n, n};
  const std::vector<Wave> waves = draw_waves(o.seed, n);
  const Box3 world{{0, 0, 0}, {n - 1, n - 1, n - 1}};
  const std::vector<cplx> input = plane_waves(waves, n, world);

  // Single-threaded baseline of the same problem.
  std::vector<double> local;
  std::vector<cplx> work;
  for (int rep = 0; rep < 3; ++rep) {
    work = input;
    const double t0 = now_s();
    dft::fft3d_local(work.data(), dims, dft::Direction::Forward);
    local.push_back(now_s() - t0);
  }
  const double local_ms = 1e3 * median(local);
  out.per_layer.set("fft.local3d_ms", local_ms, "ms");

  // 1-D engine on the input's lines.
  {
    dft::Plan1D p(n);
    std::vector<cplx> line(static_cast<std::size_t>(n));
    const idx_t lines = static_cast<idx_t>(n) * n;
    std::vector<double> per_line;
    for (int rep = 0; rep < 5; ++rep) {
      const double t0 = now_s();
      for (idx_t l = 0; l < lines; ++l)
        p.execute(input.data() + l * n, line.data(), dft::Direction::Forward);
      per_line.push_back((now_s() - t0) / static_cast<double>(lines));
    }
    out.per_layer.set("fft.line_ns.n128", 1e9 * median(per_line), "ns");
  }

  // The Alltoallv plan's stages, as Plan3D builds them.
  const std::vector<Box3> boxes = core::brick_layout(dims, R);
  std::vector<double> build;
  core::StagePlan plan;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
    plan = core::build_stages(dims, R, boxes, boxes,
                              plan_options(core::Backend::Alltoallv),
                              net::summit());
    build.push_back(now_s() - t0);
  }
  out.per_layer.set("core.build_stages_ms.r4", 1e3 * median(build), "ms");

  // Batched FFTs, pack and transpose on rank 0's pencils and regions.
  double flops_c = 0, t_c = 0, flops_s = 0, t_s = 0, pack_b = 0, pack_t = 0,
         tr_b = 0, tr_t = 0;
  for (int rep = 0; rep < 3; ++rep) {
    for (const core::Stage& s : plan.stages) {
      if (s.kind == core::Stage::Kind::Reshape) {
        const core::ReshapePlan& rp = s.reshape;
        const Box3& from = rp.from()[0];
        std::vector<cplx> src(static_cast<std::size_t>(from.count()), cplx{1, 2});
        std::vector<cplx> dst(static_cast<std::size_t>(rp.max_send_elements(0)));
        const double t0 = now_s();
        idx_t off = 0;
        for (const core::Transfer& tr : rp.sends(0)) {
          core::pack_box(src.data(), from, tr.region, dst.data() + off);
          off += tr.region.count();
        }
        pack_t += now_s() - t0;
        pack_b += static_cast<double>(off) * sizeof(cplx);
        continue;
      }
      const Box3& box = s.boxes[0];
      const std::array<idx_t, 3> sz = {box.size(0), box.size(1), box.size(2)};
      std::vector<cplx> a(static_cast<std::size_t>(box.count()), cplx{1, 2}),
          b(a.size());
      for (int axis : s.axes) {
        const int len = static_cast<int>(sz[static_cast<std::size_t>(axis)]);
        const double lines = static_cast<double>(box.count()) / len;
        const double flops = 5.0 * len * std::log2(len) * lines;
        if (axis == 2) {
          dft::ManyPlan mp(len, {.count = static_cast<int>(lines),
                                 .istride = 1, .idist = len,
                                 .ostride = 1, .odist = len});
          const double t0 = now_s();
          mp.execute(a.data(), a.data(), dft::Direction::Forward);
          t_c += now_s() - t0;
          flops_c += flops;
          continue;
        }
        // Strided lines, laid out as fft3d_axis does.
        const double t0 = now_s();
        if (axis == 1) {
          dft::ManyPlan mp(len, {.count = static_cast<int>(sz[2]),
                                 .istride = sz[2], .idist = 1,
                                 .ostride = sz[2], .odist = 1});
          for (idx_t i0 = 0; i0 < sz[0]; ++i0)
            mp.execute(a.data() + i0 * sz[1] * sz[2],
                       a.data() + i0 * sz[1] * sz[2], dft::Direction::Forward);
        } else {
          dft::ManyPlan mp(len, {.count = static_cast<int>(sz[1] * sz[2]),
                                 .istride = sz[1] * sz[2], .idist = 1,
                                 .ostride = sz[1] * sz[2], .odist = 1});
          mp.execute(a.data(), a.data(), dft::Direction::Forward);
        }
        t_s += now_s() - t0;
        flops_s += flops;
        const double t1 = now_s();
        core::transpose_to_lines(a.data(), box, axis, b.data());
        tr_t += now_s() - t1;
        tr_b += static_cast<double>(box.count()) * sizeof(cplx);
      }
    }
  }
  out.per_layer.set("fft.many_gflops.contig", flops_c / t_c / 1e9, "GFLOP/s");
  out.per_layer.set("fft.many_gflops.strided", flops_s / t_s / 1e9, "GFLOP/s");
  out.per_layer.set("core.pack_gbs", pack_b / pack_t / 1e9, "GB/s");
  out.per_layer.set("core.transpose_gbs", tr_b / tr_t / 1e9, "GB/s");

  // Traced rounds of the workload (the first pays buffer allocation):
  // execute self time and data movement, as medians.
  Tracer t;
  Outcome scratch;
  run_session(make_problem(o.seed, o.tiny, R), o.tiny ? 0 : 1.5, scratch, &t);
  out.failed += scratch.failed;
  out.per_layer.set("core.plan3d_self_ms",
                    1e3 * median(t.selves("core.plan3d_execute")), "ms");
  out.per_layer.set("simmpi.alltoallv_ms", 1e3 * median(t.durations("simmpi.alltoallv")),
                    "ms");
  out.per_layer.set("simmpi.p2p_ms", 1e3 * median(t.durations("simmpi.p2p")), "ms");
  const double op_ms = 1e3 * median(t.durations("core.plan3d_execute"));
  out.per_layer.set("fft_exec.parallel_efficiency", local_ms / (R * op_ms),
                    "ratio");
}

}  // namespace perfbench
