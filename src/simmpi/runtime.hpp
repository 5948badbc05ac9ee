#pragma once
/// \file runtime.hpp
/// Thread-based MPI-like runtime with virtual-time accounting.
///
/// Each simulated MPI rank is an OS thread; data really moves between
/// ranks (point-to-point with tags/wildcards and non-overtaking order,
/// collectives including Alltoallv and a derived-datatype Alltoallw), so
/// the distributed FFT's correctness is exercised end to end. Every rank
/// carries a virtual clock, advanced by the netsim/gpusim cost models, so
/// "runtimes" are deterministic Summit/Spock estimates rather than host
/// wall time. This module substitutes for SpectrumMPI / MVAPICH in the
/// paper's experiments (see DESIGN.md section 2).

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "gpusim/device.hpp"
#include "netsim/collectives.hpp"
#include "obs/session.hpp"

namespace parfft::smpi {

using gpu::MemSpace;

/// Wildcards for point-to-point matching.
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Reduction operators.
enum class Op { Sum, Max, Min };

/// Completed-receive metadata.
struct Status {
  int source = kAnySource;  ///< group rank of the sender
  int tag = kAnyTag;
  std::size_t bytes = 0;
};

/// An MPI-style derived sub-array datatype: a `sub`-shaped block at offset
/// `off` within a row-major `full`-shaped brick of `elem_bytes` elements,
/// repeated `hcount` times `hstride` bytes apart (MPI_Type_create_hvector
/// over the subarray; a batch of bricks is one datatype). Collectives and
/// point-to-point messages both take them, so the runtime's datatype
/// engine (copy_subarray) walks the strided layouts instead of the
/// application packing into contiguous buffers: Algorithm 2 of the paper.
/// A byte message is the one-dimensional case (byte_type).
struct Subarray {
  std::array<idx_t, 3> full{1, 1, 1};
  std::array<idx_t, 3> sub{0, 0, 0};
  std::array<idx_t, 3> off{0, 0, 0};
  std::size_t elem_bytes = sizeof(cplx);
  idx_t hcount = 1;
  idx_t hstride = 0;  ///< bytes between consecutive copies

  /// Elements of one copy.
  idx_t count() const { return sub[0] * sub[1] * sub[2]; }
  double bytes() const {
    return static_cast<double>(count()) * static_cast<double>(elem_bytes) *
           static_cast<double>(hcount);
  }
  bool empty() const { return count() == 0 || hcount == 0; }
  /// Same shape, element size and count (what a matched pair must share).
  bool same_shape(const Subarray& o) const {
    return sub == o.sub && elem_bytes == o.elem_bytes && hcount == o.hcount;
  }
};

/// `bytes` contiguous bytes at byte offset `displ`.
Subarray byte_type(std::size_t bytes, std::size_t displ = 0);

/// The datatype engine: copies subarray `st` of `src` into the `rt` layout
/// of `dst`; the two must have the same shape.
void copy_subarray(const void* src, const Subarray& st, void* dst,
                   const Subarray& rt);

/// Handle for a non-blocking operation.
struct Request {
  enum class Kind { None, Send, Recv };
  Kind kind = Kind::None;
  // Receive parameters (valid while kind == Recv and !done).
  void* buf = nullptr;
  Subarray type;          ///< the receive datatype
  bool any_size = false;  ///< byte receive: any message up to type.bytes()
  int src = kAnySource;   ///< group rank or kAnySource
  int tag = kAnyTag;
  MemSpace space = MemSpace::Host;
  /// A rendezvous send: set by the matched receiver once it has copied
  /// the block. Shared with the message, so a discarded request leaves
  /// nothing dangling.
  std::shared_ptr<const std::atomic<bool>> copied;
  bool done = false;
  bool consumed = false;
  Status status;
};

struct RuntimeOptions {
  net::MachineSpec machine = net::summit();
  int nranks = 1;
  /// Ranks per node; 0 uses machine.gpus_per_node (1 MPI rank per GPU,
  /// the paper's placement).
  int ranks_per_node = 0;
  /// heFFTe's -no-gpu-aware switch: when false, device-resident messages
  /// are staged through the host (device->host->host->device).
  bool gpu_aware = true;
  net::MpiFlavor flavor = net::MpiFlavor::SpectrumMPI;
  gpu::DeviceSpec device = gpu::v100();
  /// Span/metric recording for runs of this runtime. Also switched on
  /// globally by the PARFFT_TRACE environment variable.
  obs::TraceConfig trace;
};

class Runtime;

/// A communicator handle; methods must be called from the owning rank's
/// thread (like an MPI communicator used by one process).
class Comm {
 public:
  int rank() const { return grank_; }
  int size() const;
  int world_rank() const { return wrank_; }
  const RuntimeOptions& options() const;
  const net::CommCost& cost() const;

  // --- Virtual clock ----------------------------------------------------
  double vtime() const;
  void advance(double dt);

  // --- Observability ------------------------------------------------------
  /// The active run's trace (spans keyed by world rank), or nullptr when
  /// tracing is off. Valid for the duration of Runtime::run().
  obs::RunTrace* trace_run() const;

  // --- Point-to-point ----------------------------------------------------
  /// Blocking standard send, eager: the block is copied into a runtime
  /// buffer, so it completes locally whether or not a receive is posted.
  /// `timed = false` moves the data without charging transport time on the
  /// virtual clock -- used by phase-level code that settles the whole
  /// phase's cost afterwards via settle_phase().
  void send(const void* buf, std::size_t bytes, int dst, int tag,
            MemSpace space = MemSpace::Host, bool timed = true);
  void send(const void* buf, const Subarray& type, int dst, int tag,
            MemSpace space = MemSpace::Host, bool timed = true);
  /// Non-blocking send, rendezvous: publishes (buf, type) to the
  /// destination, whose matched receive copies straight out of `buf`. The
  /// request completes once that copy is done; `buf` must stay unchanged
  /// until then (as MPI requires). Waiting on it never moves the clock.
  Request isend(const void* buf, std::size_t bytes, int dst, int tag,
                MemSpace space = MemSpace::Host, bool timed = true);
  Request isend(const void* buf, const Subarray& type, int dst, int tag,
                MemSpace space = MemSpace::Host, bool timed = true);
  /// Blocking receive. `src`/`tag` accept wildcards.
  Status recv(void* buf, std::size_t capacity, int src, int tag,
              MemSpace space = MemSpace::Host);
  /// Non-blocking receive of any message of up to `capacity` bytes, which
  /// lands contiguously at `buf`.
  Request irecv(void* buf, std::size_t capacity, int src, int tag,
                MemSpace space = MemSpace::Host);
  /// Non-blocking receive into the `type` layout of `buf`; the matched
  /// message must have the same shape (else the wait throws).
  Request irecv(void* buf, const Subarray& type, int src, int tag,
                MemSpace space = MemSpace::Host);
  /// Combined send + receive (MPI_Sendrecv; Table I lists it for AccFFT).
  Status sendrecv(const void* sbuf, std::size_t sbytes, int dst, int stag,
                  void* rbuf, std::size_t rcapacity, int src, int rtag,
                  MemSpace space = MemSpace::Host);
  /// Waits for one request; returns its status.
  Status wait(Request& req);
  /// Waits until any not-yet-consumed request completes; returns its index
  /// or -1 when every request has already been consumed.
  int waitany(std::vector<Request>& reqs);
  void waitall(std::vector<Request>& reqs);

  // --- Collectives --------------------------------------------------------
  void barrier();
  void bcast(void* buf, std::size_t bytes, int root);
  template <typename T>
  void allreduce(T* data, int count, Op op);
  /// Gathers `bytes` from every rank into recvbuf (size() * bytes), on all
  /// ranks.
  void allgather(const void* sendbuf, std::size_t bytes, void* recvbuf);
  /// Gathers `bytes` from every rank into root's recvbuf (rank order).
  void gather(const void* sendbuf, std::size_t bytes, void* recvbuf,
              int root);
  /// Scatters size() blocks of `bytes` from root's sendbuf to every rank.
  void scatter(const void* sendbuf, std::size_t bytes, void* recvbuf,
               int root);
  /// Reduction onto `root` only (other ranks' data is left untouched).
  template <typename T>
  void reduce(T* data, int count, Op op, int root);
  /// Inclusive prefix reduction in rank order (MPI_Scan).
  template <typename T>
  void scan(T* data, int count, Op op);

  /// MPI_Alltoallv-style exchange; counts/displacements in BYTES. `alg`
  /// selects the cost model: Alltoall pads every block to the maximum
  /// block size (heFFTe's padded variant), Alltoallv uses exact counts.
  /// Data movement is identical; only the virtual time differs, exactly
  /// the distinction the paper measures (Fig. 6). Alltoallv, Alltoallw and
  /// settle_phase share one priced exchange (see exchange() below).
  void alltoallv(const void* sbuf, const std::vector<std::size_t>& scounts,
                 const std::vector<std::size_t>& sdispls, void* rbuf,
                 const std::vector<std::size_t>& rcounts,
                 const std::vector<std::size_t>& rdispls,
                 MemSpace space = MemSpace::Host,
                 net::CollectiveAlg alg = net::CollectiveAlg::Alltoallv);

  /// MPI_Alltoallw with sub-array datatypes (Algorithm 2): no application
  /// packing; the runtime's datatype engine walks the strided layouts.
  /// stypes/rtypes have one entry per peer; empty subarrays mean no
  /// traffic with that peer. Under SpectrumMPI this routine is not
  /// GPU-aware (device buffers are staged), per the paper. `alg` selects
  /// the cost model as in alltoallv: core's packed reshape moves its
  /// blocks here but prices the Alltoall(v) its GPU pack kernels feed.
  void alltoallw(const void* sbuf, const std::vector<Subarray>& stypes,
                 void* rbuf, const std::vector<Subarray>& rtypes,
                 MemSpace space = MemSpace::Host,
                 net::CollectiveAlg alg = net::CollectiveAlg::Alltoallw);

  /// Collective virtual-time settlement for a phase whose *data* was moved
  /// with point-to-point calls: recomputes the phase cost with the
  /// congestion-aware model and raises every member's clock consistently.
  /// `my_sends` lists (dst group rank, bytes). Returns this rank's
  /// communication time for the phase.
  double settle_phase(const std::vector<std::pair<int, double>>& my_sends,
                      net::CollectiveAlg alg, MemSpace space);

  /// Splits like MPI_Comm_split; `key` orders ranks within each color
  /// (ties broken by parent rank).
  Comm split(int color, int key);

  /// Creates a sub-communicator from ascending parent group ranks
  /// (collective over the parent). Ranks outside `members` get an invalid
  /// Comm.
  Comm create_group(const std::vector<int>& members);

  bool valid() const { return rt_ != nullptr; }

  // --- Low-level building blocks (exposed for core/tests) ----------------
  /// Generic two-phase collective: publish `contribution`, the last
  /// arriving member runs `leader` over all contributions (other threads
  /// are parked, so the leader may write into their buffers), then every
  /// member runs `reader` concurrently and outside the group lock (so a
  /// reader may read any contribution but write only its own buffers),
  /// and finally every member's clock becomes
  /// max(entry clocks) + exit_cost(my group rank, group size), with
  /// exit_cost >= 0 (checked under PARFFT_PARANOID). A leader that throws
  /// withdraws its contribution and fails the run; the other members
  /// withdraw theirs as the run aborts.
  using ContribView = std::vector<const void*>;
  void collective(const void* contribution,
                  const std::function<void(const ContribView&)>& leader,
                  const std::function<void(const ContribView&)>& reader,
                  const std::function<double(int, int)>& exit_cost);

  /// The one collective that sets clocks rather than advancing them: every
  /// member leaves at exactly the clock `leader` returns, even one earlier
  /// than its entry clock (Plan3D's overlapped settle).
  void settle_clocks(const void* contribution,
                     const std::function<double(const ContribView&)>& leader);

  /// Cost of a tree reduction/broadcast of `bytes` over `group_size` ranks.
  double tree_cost(double bytes, int group_size) const;

 private:
  friend class Runtime;
  Comm() = default;
  Comm(Runtime* rt, int group_id, int grank, int wrank)
      : rt_(rt), group_id_(group_id), grank_(grank), wrank_(wrank) {}

  net::TransferMode mode_for(MemSpace space) const;
  /// Posts a message to `dst`; `eager` copies the block into the message,
  /// otherwise the receiver copies it from `buf` (rendezvous).
  Request post(const void* buf, const Subarray& type, int dst, int tag,
               MemSpace space, bool timed, bool eager);

  /// (dst group rank, bytes) for each block a rank sends.
  using SendRow = std::vector<std::pair<int, double>>;
  /// The buffers of an alltoallv/alltoallw call, with one datatype per
  /// peer on each side (an alltoallv block is a one-dimensional byte
  /// subarray).
  struct Blocks {
    const char* call;  ///< the routine, for error messages
    const void* sbuf;
    const std::vector<Subarray>& stypes;
    void* rbuf;
    const std::vector<Subarray>& rtypes;
  };
  /// The one priced exchange behind alltoallv, alltoallw and settle_phase.
  /// Each member brings its own send row. The leader checks that every
  /// matched pair of datatypes agrees, then prices the rows with
  /// CommCost::exchange; with `blocks`, every rank then copies the blocks
  /// addressed to it outside the group lock and records one exchange span.
  /// settle_phase passes no blocks: its data already moved point to point.
  /// Returns this rank's communication time.
  double exchange(const SendRow& row, net::CollectiveAlg alg, MemSpace space,
                  const Blocks* blocks);

  Runtime* rt_ = nullptr;
  int group_id_ = -1;
  int grank_ = -1;
  int wrank_ = -1;
};

/// Owns the rank threads and all shared state.
class Runtime {
 public:
  explicit Runtime(RuntimeOptions opt);
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Runs `fn` once per rank on dedicated threads, passing the world
  /// communicator; rethrows the first rank exception after joining all
  /// threads (other ranks are aborted).
  void run(const std::function<void(Comm&)>& fn);

  const RuntimeOptions& options() const { return opt_; }
  const net::CommCost& cost() const { return cost_; }

  /// The trace of the current (or most recent) run; nullptr when tracing
  /// is disabled.
  obs::RunTrace* trace_run() const { return trace_run_; }

  /// Virtual clock of a rank after run() returned (for reporting).
  double final_vtime(int rank) const;

 private:
  friend class Comm;
  struct Message {
    int src_wrank = 0;
    int group_id = 0;
    int tag = 0;
    double arrival = 0;
    Subarray type;
    const void* data = nullptr;      ///< the sender's buffer (rendezvous)
    std::vector<std::byte> payload;  ///< the packed copy (eager send)
    /// Rendezvous: set once the receiver has copied from `data`.
    std::shared_ptr<std::atomic<bool>> copied;
  };
  struct RankCtx {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Message> inbox;
    double vclock = 0;
  };
  struct Group {
    int id = 0;
    std::vector<int> members;  ///< ascending world ranks
    // Rendezvous state.
    std::mutex mu;
    std::condition_variable cv;
    int arrived = 0;
    int departed = 0;
    int reading = 0;  ///< members whose reader phase has not finished
    std::uint64_t generation = 0;
    std::vector<const void*> contrib;
    double base_time = 0;  ///< max entry clock (settle_clocks: the leader's)
  };

  Group& group(int id);
  int new_group(std::vector<int> members);
  RankCtx& ctx(int wrank) { return *ranks_[static_cast<std::size_t>(wrank)]; }
  void check_abort() const;

  RuntimeOptions opt_;
  net::RankMap map_;
  net::CommCost cost_;
  std::vector<std::unique_ptr<RankCtx>> ranks_;
  std::mutex groups_mu_;
  std::deque<Group> groups_;  // deque keeps addresses stable
  std::atomic<bool> aborted_{false};
  obs::RunTrace* trace_run_ = nullptr;  ///< owned by obs::Session::global()
};

// --- template implementation ------------------------------------------------

namespace detail {
template <typename T>
void combine(T& acc, const T& v, Op op) {
  switch (op) {
    case Op::Sum: acc += v; break;
    case Op::Max: acc = std::max(acc, v); break;
    case Op::Min: acc = std::min(acc, v); break;
  }
}
}  // namespace detail

template <typename T>
void Comm::reduce(T* data, int count, Op op, int root) {
  PARFFT_CHECK(count >= 0, "negative count");
  PARFFT_CHECK(root >= 0 && root < size(), "root out of range");
  struct C {
    T* p;
  } mine{data};
  collective(
      &mine,
      [count, op, root](const ContribView& all) {
        T* dst = static_cast<const C*>(all[static_cast<std::size_t>(root)])->p;
        std::vector<T> acc(dst, dst + count);
        for (std::size_t r = 0; r < all.size(); ++r) {
          if (static_cast<int>(r) == root) continue;
          const T* q = static_cast<const C*>(all[r])->p;
          for (int i = 0; i < count; ++i)
            detail::combine(acc[static_cast<std::size_t>(i)], q[i], op);
        }
        std::copy(acc.begin(), acc.end(), dst);
      },
      nullptr,
      [this, count](int, int gsize) {
        return tree_cost(static_cast<double>(count) * sizeof(T), gsize);
      });
}

template <typename T>
void Comm::scan(T* data, int count, Op op) {
  PARFFT_CHECK(count >= 0, "negative count");
  struct C {
    T* p;
  } mine{data};
  collective(
      &mine,
      [count, op](const ContribView& all) {
        // Inclusive prefix in group-rank order, computed in place from
        // the highest rank downwards so inputs are still intact.
        for (std::size_t r = all.size(); r-- > 1;) {
          T* dst = static_cast<const C*>(all[r])->p;
          for (std::size_t q = 0; q < r; ++q) {
            const T* src = static_cast<const C*>(all[q])->p;
            for (int i = 0; i < count; ++i)
              detail::combine(dst[i], src[i], op);
          }
        }
      },
      nullptr,
      [this, count](int, int gsize) {
        return tree_cost(static_cast<double>(count) * sizeof(T), gsize);
      });
}

template <typename T>
void Comm::allreduce(T* data, int count, Op op) {
  PARFFT_CHECK(count >= 0, "negative count");
  struct C {
    T* p;
  } mine{data};
  collective(
      &mine,
      [count, op](const ContribView& all) {
        std::vector<T> acc(static_cast<std::size_t>(count));
        const T* first = static_cast<const C*>(all[0])->p;
        std::copy(first, first + count, acc.begin());
        for (std::size_t r = 1; r < all.size(); ++r) {
          const T* q = static_cast<const C*>(all[r])->p;
          for (int i = 0; i < count; ++i)
            detail::combine(acc[static_cast<std::size_t>(i)], q[i], op);
        }
        for (const void* c : all)
          std::copy(acc.begin(), acc.end(), static_cast<const C*>(c)->p);
      },
      nullptr,
      [this, count](int, int gsize) {
        // Reduce + broadcast trees.
        return 2.0 * tree_cost(static_cast<double>(count) * sizeof(T), gsize);
      });
}

}  // namespace parfft::smpi
