// Simulated MPI runtime: point-to-point semantics (tags, wildcards,
// ordering), requests, collectives (data + virtual-time), communicator
// split and derived-datatype Alltoallw.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "simmpi/runtime.hpp"

namespace parfft::smpi {
namespace {

RuntimeOptions small_opts(int nranks) {
  RuntimeOptions o;
  o.nranks = nranks;
  return o;
}

TEST(Runtime, RunsEveryRankOnce) {
  Runtime rt(small_opts(8));
  std::atomic<int> count{0};
  rt.run([&](Comm& c) {
    EXPECT_EQ(c.size(), 8);
    EXPECT_GE(c.rank(), 0);
    EXPECT_LT(c.rank(), 8);
    ++count;
  });
  EXPECT_EQ(count.load(), 8);
}

TEST(Runtime, RejectsBadRankCounts) {
  EXPECT_THROW(Runtime(small_opts(0)), Error);
  EXPECT_THROW(Runtime(small_opts(1000)), Error);
}

TEST(Runtime, PropagatesRankExceptions) {
  Runtime rt(small_opts(4));
  EXPECT_THROW(rt.run([](Comm& c) {
                 if (c.rank() == 2) throw Error("rank two failed");
                 c.barrier();  // other ranks park here and must be aborted
               }),
               Error);
}

/// A rank that aborts while waiting for its group withdraws its
/// contribution: a member that enters the collective afterwards must not
/// complete the group on the departed rank's destroyed stack object, and
/// the run reports the original failure.
TEST(Runtime, AbortedArrivalWithdrawsItsContribution) {
  Runtime rt(small_opts(3));
  std::atomic<bool> waiting{false}, left{false};
  try {
    rt.run([&](Comm& c) {
      Comm pair = c.create_group({0, 1});
      if (c.rank() == 2) {
        while (!waiting.load()) std::this_thread::yield();
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        throw Error("rank two failed");
      }
      if (c.rank() == 1)  // enters only after rank 0 has aborted
        while (!left.load()) std::this_thread::yield();
      const std::array<int, 4> mine{c.rank(), c.rank(), c.rank(), c.rank()};
      std::array<int, 8> all{};
      if (c.rank() == 0) waiting.store(true);
      try {
        pair.allgather(mine.data(), sizeof(mine), all.data());
      } catch (const Error&) {
        if (c.rank() == 0) left.store(true);
        throw;
      }
      ADD_FAILURE() << "rank " << c.rank()
                    << " completed a collective its peer had left";
    });
    FAIL() << "the rank failure must propagate";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "rank two failed");
  }
}

/// A leader whose checks throw withdraws its own arrival: the next run on
/// the same Runtime must start from an empty rendezvous, not complete its
/// first collective one member early on the failed run's dead
/// contribution.
TEST(Runtime, ThrowingLeaderLeavesRuntimeReusable) {
  const int G = 3;
  Runtime rt(small_opts(G));
  EXPECT_THROW(rt.run([](Comm& c) {
                 std::vector<std::size_t> counts(G, 8), displs{0, 8, 16};
                 std::vector<std::size_t> rcounts = counts;
                 if (c.rank() == 1) rcounts[2] = 4;  // rank 2 sends 8 bytes
                 std::vector<std::byte> sbuf(24), rbuf(24);
                 c.alltoallv(sbuf.data(), counts, displs, rbuf.data(),
                             rcounts, displs);
               }),
               Error);
  std::vector<int> sums(G, 0);
  rt.run([&sums](Comm& c) {
    int v = c.rank() + 1;
    c.allreduce(&v, 1, Op::Sum);
    sums[static_cast<std::size_t>(c.rank())] = v;
  });
  EXPECT_EQ(sums, std::vector<int>(G, 6));
}

TEST(P2P, SendRecvMovesData) {
  Runtime rt(small_opts(2));
  rt.run([](Comm& c) {
    if (c.rank() == 0) {
      const double v = 3.25;
      c.send(&v, sizeof(v), 1, 7);
    } else {
      double v = 0;
      const Status st = c.recv(&v, sizeof(v), 0, 7);
      EXPECT_DOUBLE_EQ(v, 3.25);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
      EXPECT_EQ(st.bytes, sizeof(double));
    }
  });
}

TEST(P2P, TagsSelectMessages) {
  Runtime rt(small_opts(2));
  rt.run([](Comm& c) {
    if (c.rank() == 0) {
      const int a = 1, b = 2;
      c.send(&a, sizeof(a), 1, 10);
      c.send(&b, sizeof(b), 1, 20);
    } else {
      int v = 0;
      c.recv(&v, sizeof(v), 0, 20);  // out of order by tag
      EXPECT_EQ(v, 2);
      c.recv(&v, sizeof(v), 0, 10);
      EXPECT_EQ(v, 1);
    }
  });
}

TEST(P2P, SameTagPreservesOrder) {
  Runtime rt(small_opts(2));
  rt.run([](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 10; ++i) c.send(&i, sizeof(i), 1, 5);
    } else {
      for (int i = 0; i < 10; ++i) {
        int v = -1;
        c.recv(&v, sizeof(v), 0, 5);
        EXPECT_EQ(v, i);  // non-overtaking
      }
    }
  });
}

TEST(P2P, WildcardsMatchAnything) {
  Runtime rt(small_opts(3));
  rt.run([](Comm& c) {
    if (c.rank() != 0) {
      const int v = 100 + c.rank();
      c.send(&v, sizeof(v), 0, c.rank());
    } else {
      int sum = 0;
      for (int i = 0; i < 2; ++i) {
        int v = 0;
        const Status st = c.recv(&v, sizeof(v), kAnySource, kAnyTag);
        EXPECT_EQ(v, 100 + st.source);
        EXPECT_EQ(st.tag, st.source);
        sum += v;
      }
      EXPECT_EQ(sum, 203);
    }
  });
}

TEST(P2P, WaitanyCompletesAllReceives) {
  Runtime rt(small_opts(4));
  rt.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> vals(3, -1);
      std::vector<Request> reqs;
      for (int r = 1; r < 4; ++r)
        reqs.push_back(c.irecv(&vals[static_cast<std::size_t>(r - 1)],
                               sizeof(int), r, 0));
      int completed = 0;
      int idx;
      while ((idx = c.waitany(reqs)) != -1) {
        EXPECT_TRUE(reqs[static_cast<std::size_t>(idx)].done);
        ++completed;
      }
      EXPECT_EQ(completed, 3);
      EXPECT_EQ(vals[0] + vals[1] + vals[2], 1 + 2 + 3);
    } else {
      const int v = c.rank();
      c.send(&v, sizeof(v), 0, 0);
    }
  });
}

TEST(P2P, RecvBufferTooSmallThrows) {
  Runtime rt(small_opts(2));
  EXPECT_THROW(rt.run([](Comm& c) {
                 if (c.rank() == 0) {
                   const double big[4] = {};
                   c.send(big, sizeof(big), 1, 0);
                 } else {
                   double small = 0;
                   c.recv(&small, sizeof(small), 0, 0);
                 }
               }),
               Error);
}

TEST(P2P, AdvancesVirtualClock) {
  Runtime rt(small_opts(2));
  rt.run([](Comm& c) {
    const std::size_t bytes = 10 << 20;
    std::vector<std::byte> buf(bytes);
    if (c.rank() == 0) {
      c.send(buf.data(), bytes, 1, 0, MemSpace::Device);
    } else {
      c.recv(buf.data(), bytes, 0, 0, MemSpace::Device);
      // 10 MiB over NVLink (same node): ~200 us of virtual time.
      EXPECT_GT(c.vtime(), 100e-6);
      EXPECT_LT(c.vtime(), 1e-3);
    }
  });
}

TEST(P2P, TimedClocksFollowTheCostModel) {
  // A timed send charges its posting overhead (plus the completion
  // handshake when blocking); the receiver's clock becomes the message's
  // arrival, the sender's post clock plus its point-to-point time.
  Runtime rt(small_opts(8));
  const double ovh = rt.options().machine.mpi_overhead;
  const std::size_t bytes = 3 << 20;
  const auto& cost = rt.cost();
  auto p2p = [&cost, bytes](int src, int dst) {
    return cost.point_to_point(src, dst, static_cast<double>(bytes),
                               net::TransferMode::GpuAware);
  };
  std::vector<double> clock(8);
  rt.run([&](Comm& c) {
    std::vector<std::byte> buf(bytes);
    switch (c.rank()) {
      case 0: c.send(buf.data(), bytes, 1, 0, MemSpace::Device); break;
      case 1: c.recv(buf.data(), bytes, 0, 0, MemSpace::Device); break;
      case 2: {
        Request r = c.isend(buf.data(), bytes, 6, 0, MemSpace::Device);
        c.wait(r);  // completing a send never moves the clock
        break;
      }
      case 6: c.recv(buf.data(), bytes, 2, 0, MemSpace::Device); break;
      case 3:
      case 4: {
        std::vector<std::byte> got(bytes);
        const int other = 7 - c.rank();
        c.sendrecv(buf.data(), bytes, other, 1, got.data(), bytes, other, 1);
        break;
      }
      default: break;
    }
    clock[static_cast<std::size_t>(c.rank())] = c.vtime();
  });
  auto host = [&cost, bytes](int src, int dst) {
    return cost.point_to_point(src, dst, static_cast<double>(bytes),
                               net::TransferMode::Host);
  };
  EXPECT_EQ(clock[0], ovh + ovh);
  EXPECT_EQ(clock[1], p2p(0, 1));
  EXPECT_EQ(clock[2], ovh);
  EXPECT_EQ(clock[6], p2p(2, 6));
  EXPECT_EQ(clock[3], std::max(ovh, host(4, 3)));
  EXPECT_EQ(clock[4], std::max(ovh, host(3, 4)));
  EXPECT_EQ(clock[5], 0.0);
}

TEST(P2P, RendezvousSendCompletesOnceReceived) {
  Runtime rt(small_opts(2));
  rt.run([](Comm& c) {
    std::vector<double> v(6);
    if (c.rank() == 0) {
      std::iota(v.begin(), v.end(), 1.0);
      Request r = c.isend(v.data(), v.size() * sizeof(double), 1, 4);
      ASSERT_TRUE(r.copied);
      EXPECT_FALSE(r.copied->load());
      c.barrier();  // rank 1 posts its receive only after this
      c.barrier();
      EXPECT_TRUE(r.copied->load());
      const double t = c.vtime();
      c.wait(r);
      EXPECT_TRUE(r.done);
      EXPECT_EQ(c.vtime(), t);
    } else {
      c.barrier();
      c.recv(v.data(), v.size() * sizeof(double), 0, 4);
      EXPECT_EQ(v, (std::vector<double>{1, 2, 3, 4, 5, 6}));
      c.barrier();
    }
  });
}

TEST(P2P, TypedMessagesLandInPlaceFromAnySource) {
  // Ranks 1 and 2 each send a strided 2x1x2 block of two 2x3x4 bricks
  // (hcount 2); rank 0 receives both with kAnySource into the column
  // `k` of two 2x2x2 bricks, where k is the request's index.
  Runtime rt(small_opts(3));
  rt.run([](Comm& c) {
    const std::size_t eb = sizeof(double);
    auto value = [](int src, int brick, idx_t a, idx_t b, idx_t k) {
      return src * 1000 + brick * 100 +
             static_cast<double>((a * 3 + b) * 4 + k);
    };
    if (c.rank() != 0) {
      std::vector<double> bricks(48);
      for (int h = 0; h < 2; ++h)
        for (idx_t a = 0; a < 2; ++a)
          for (idx_t b = 0; b < 3; ++b)
            for (idx_t k = 0; k < 4; ++k)
              bricks[static_cast<std::size_t>(h * 24 + (a * 3 + b) * 4 + k)] =
                  value(c.rank(), h, a, b, k);
      const Subarray st{{2, 3, 4}, {2, 1, 2}, {0, 1, 1}, eb, 2, 24 * eb};
      Request r = c.isend(bricks.data(), st, 0, 9);
      c.wait(r);
      return;
    }
    std::vector<double> out(16, -1);
    std::vector<Request> reqs;
    for (idx_t k = 0; k < 2; ++k)
      reqs.push_back(c.irecv(
          out.data(), Subarray{{2, 2, 2}, {2, 1, 2}, {0, k, 0}, eb, 2, 8 * eb},
          kAnySource, 9));
    c.waitall(reqs);
    for (idx_t k = 0; k < 2; ++k) {
      const Status& st = reqs[static_cast<std::size_t>(k)].status;
      EXPECT_EQ(st.bytes, 8 * eb);
      for (int h = 0; h < 2; ++h)
        for (idx_t a = 0; a < 2; ++a)
          for (idx_t j = 0; j < 2; ++j)
            EXPECT_EQ(out[static_cast<std::size_t>(h * 8 + (a * 2 + k) * 2 + j)],
                      value(st.source, h, a, 1, 1 + j));
    }
    EXPECT_NE(reqs[0].status.source, reqs[1].status.source);
  });
}

TEST(P2P, MismatchedTypedShapesThrowNamingTheCall) {
  Runtime rt(small_opts(2));
  std::string err;
  try {
    rt.run([](Comm& c) {
      std::vector<double> brick(16);
      const std::size_t eb = sizeof(double);
      if (c.rank() == 0) {
        Request r = c.isend(
            brick.data(), Subarray{{1, 4, 4}, {1, 2, 4}, {0, 0, 0}, eb}, 1, 0);
        c.wait(r);
      } else {
        Request r = c.irecv(
            brick.data(), Subarray{{1, 4, 4}, {1, 4, 2}, {0, 0, 0}, eb}, 0, 0);
        c.wait(r);
      }
    });
  } catch (const Error& e) {
    err = e.what();
  }
  EXPECT_NE(err.find("irecv"), std::string::npos) << err;
}

TEST(P2P, DiscardedSendRequestIsSafe) {
  Runtime rt(small_opts(2));
  rt.run([](Comm& c) {
    std::vector<int> buf(1000, c.rank() + 1);
    if (c.rank() == 0) {
      (void)c.isend(buf.data(), buf.size() * sizeof(int), 1, 0);
    } else {
      std::vector<int> got(1000, 0);
      c.recv(got.data(), got.size() * sizeof(int), 0, 0);
      EXPECT_EQ(got, std::vector<int>(1000, 1));
    }
    c.barrier();  // the send buffer outlives the receive
  });
}

TEST(P2P, BlockingSendsBeforeReceivesCompleteInARing) {
  // Eager send: every rank sends to its right neighbour before anyone
  // receives, and the ring still completes.
  Runtime rt(small_opts(5));
  rt.run([](Comm& c) {
    const int R = c.size();
    std::vector<double> mine(256, c.rank());
    c.send(mine.data(), mine.size() * sizeof(double), (c.rank() + 1) % R, 2);
    std::vector<double> got(256, -1);
    c.recv(got.data(), got.size() * sizeof(double), (c.rank() + R - 1) % R,
           2);
    EXPECT_EQ(got, std::vector<double>(256, (c.rank() + R - 1) % R));
  });
}

TEST(Collectives, BarrierSynchronizesClocks) {
  Runtime rt(small_opts(6));
  rt.run([](Comm& c) {
    c.advance(c.rank() * 1e-3);  // skewed clocks
    c.barrier();
    EXPECT_GE(c.vtime(), 5e-3);  // everyone at least at the max
  });
}

TEST(Collectives, BcastDelivers) {
  Runtime rt(small_opts(5));
  rt.run([](Comm& c) {
    std::vector<int> data(4, c.rank() == 2 ? 42 : 0);
    c.bcast(data.data(), data.size() * sizeof(int), 2);
    for (int v : data) EXPECT_EQ(v, 42);
  });
}

TEST(Collectives, AllreduceSumMaxMin) {
  Runtime rt(small_opts(6));
  rt.run([](Comm& c) {
    double v[2] = {static_cast<double>(c.rank()), 1.0};
    c.allreduce(v, 2, Op::Sum);
    EXPECT_DOUBLE_EQ(v[0], 15.0);
    EXPECT_DOUBLE_EQ(v[1], 6.0);
    double w = c.rank();
    c.allreduce(&w, 1, Op::Max);
    EXPECT_DOUBLE_EQ(w, 5.0);
    double u = c.rank();
    c.allreduce(&u, 1, Op::Min);
    EXPECT_DOUBLE_EQ(u, 0.0);
  });
}

TEST(Collectives, AllgatherAssemblesInRankOrder) {
  Runtime rt(small_opts(4));
  rt.run([](Comm& c) {
    const int mine = 10 * (c.rank() + 1);
    std::vector<int> all(4, -1);
    c.allgather(&mine, sizeof(int), all.data());
    EXPECT_EQ(all, (std::vector<int>{10, 20, 30, 40}));
  });
}

TEST(Collectives, AlltoallvExchangesBlocks) {
  const int G = 4;
  Runtime rt(small_opts(G));
  rt.run([G](Comm& c) {
    // Rank i sends (i*10 + j) to rank j.
    std::vector<int> sbuf(G), rbuf(G, -1);
    std::vector<std::size_t> counts(G, sizeof(int)), displs(G);
    for (int j = 0; j < G; ++j) {
      sbuf[static_cast<std::size_t>(j)] = c.rank() * 10 + j;
      displs[static_cast<std::size_t>(j)] = static_cast<std::size_t>(j) * sizeof(int);
    }
    c.alltoallv(sbuf.data(), counts, displs, rbuf.data(), counts, displs);
    for (int j = 0; j < G; ++j)
      EXPECT_EQ(rbuf[static_cast<std::size_t>(j)], j * 10 + c.rank());
  });
}

TEST(Collectives, AlltoallvUnevenCounts) {
  const int G = 3;
  Runtime rt(small_opts(G));
  rt.run([G](Comm& c) {
    // Rank i sends i+1 ints to each peer j, all equal to 100*i + j.
    const int r = c.rank();
    std::vector<std::size_t> scounts(G), sdispls(G), rcounts(G), rdispls(G);
    std::size_t soff = 0, roff = 0;
    for (int j = 0; j < G; ++j) {
      scounts[static_cast<std::size_t>(j)] = static_cast<std::size_t>(r + 1) * sizeof(int);
      sdispls[static_cast<std::size_t>(j)] = soff;
      soff += scounts[static_cast<std::size_t>(j)];
      rcounts[static_cast<std::size_t>(j)] = static_cast<std::size_t>(j + 1) * sizeof(int);
      rdispls[static_cast<std::size_t>(j)] = roff;
      roff += rcounts[static_cast<std::size_t>(j)];
    }
    std::vector<int> sbuf(soff / sizeof(int)), rbuf(roff / sizeof(int), -1);
    for (int j = 0, k = 0; j < G; ++j)
      for (int q = 0; q <= r; ++q) sbuf[static_cast<std::size_t>(k++)] = 100 * r + j;
    c.alltoallv(sbuf.data(), scounts, sdispls, rbuf.data(), rcounts, rdispls);
    int k = 0;
    for (int j = 0; j < G; ++j)
      for (int q = 0; q <= j; ++q)
        EXPECT_EQ(rbuf[static_cast<std::size_t>(k++)], 100 * j + c.rank());
  });
}

TEST(Collectives, AlltoallPaddedCostsMoreThanAlltoallv) {
  // Same data, imbalanced counts: the padded model must burn more vtime.
  const int G = 6;
  auto run_with = [&](net::CollectiveAlg alg) {
    Runtime rt(small_opts(G));
    double t = 0;
    rt.run([&t, G, alg](Comm& c) {
      std::vector<std::size_t> scounts(G, 64), sdispls(G), rcounts(G, 64),
          rdispls(G);
      if (c.rank() == 0) scounts[1] = 4 << 20;
      if (c.rank() == 1) rcounts[0] = 4 << 20;
      std::size_t so = 0, ro = 0;
      for (int j = 0; j < G; ++j) {
        sdispls[static_cast<std::size_t>(j)] = so;
        so += scounts[static_cast<std::size_t>(j)];
        rdispls[static_cast<std::size_t>(j)] = ro;
        ro += rcounts[static_cast<std::size_t>(j)];
      }
      std::vector<std::byte> sbuf(so), rbuf(ro);
      c.alltoallv(sbuf.data(), scounts, sdispls, rbuf.data(), rcounts,
                  rdispls, MemSpace::Device, alg);
      if (c.rank() == 0) t = c.vtime();
    });
    return t;
  };
  EXPECT_GT(run_with(net::CollectiveAlg::Alltoall),
            run_with(net::CollectiveAlg::Alltoallv));
}

// Every rank copies the blocks addressed to it, outside the group lock,
// while the others do the same; back-to-back calls on one communicator
// then lean on the departure barrier to keep the next call's contributions
// from replacing ones a reader still uses. Counts come from one seeded
// matrix per call that all ranks draw alike, with zero blocks and
// self-blocks; every element must land where it belongs and nothing else
// may be written.
TEST(Simmpi, AlltoallvAlltoallwDeliverUnderRepeatedCalls) {
  static constexpr int kCalls = 50;
  static constexpr idx_t kMaxBlock = 4;  // elements per block: 0..kMaxBlock
  static constexpr double kUnset = -1.0;
  for (int G : {1, 2, 3, 5, 8}) {
    Runtime rt(small_opts(G));
    rt.run([G](Comm& c) {
      const int me = c.rank();
      const std::size_t g = static_cast<std::size_t>(G);
      // Value of element e of block src -> dst in call `call`.
      auto value = [](int call, int src, int dst, idx_t e) {
        return static_cast<double>(((call * 16 + src) * 16 + dst) * 16 + e);
      };
      for (int call = 0; call < kCalls; ++call) {
        Rng rng(static_cast<std::uint64_t>(1000 * G + call));
        std::vector<std::vector<idx_t>> cnt(g, std::vector<idx_t>(g));
        for (auto& row : cnt)
          for (idx_t& v : row) v = rng.uniform_int(0, 2) == 0 ? 0 : rng.uniform_int(1, kMaxBlock);

        // Alltoallv: packed blocks, peer order.
        std::vector<std::size_t> sc(g), sd(g), rc(g), rd(g);
        std::vector<double> sbuf, rbuf;
        for (std::size_t j = 0; j < g; ++j) {
          sd[j] = sbuf.size() * sizeof(double);
          sc[j] = static_cast<std::size_t>(cnt[static_cast<std::size_t>(me)][j]) * sizeof(double);
          for (idx_t e = 0; e < cnt[static_cast<std::size_t>(me)][j]; ++e)
            sbuf.push_back(value(call, me, static_cast<int>(j), e));
          rd[j] = rbuf.size() * sizeof(double);
          rc[j] = static_cast<std::size_t>(cnt[j][static_cast<std::size_t>(me)]) * sizeof(double);
          rbuf.resize(rbuf.size() + static_cast<std::size_t>(cnt[j][static_cast<std::size_t>(me)]), kUnset);
        }
        c.alltoallv(sbuf.data(), sc, sd, rbuf.data(), rc, rd);
        // Count mismatches rather than ASSERT: a rank that left early
        // would leave the others waiting in the next collective.
        int wrong = 0;
        for (std::size_t j = 0, k = 0; j < g; ++j)
          for (idx_t e = 0; e < cnt[j][static_cast<std::size_t>(me)]; ++e, ++k)
            wrong += rbuf[k] != value(call, static_cast<int>(j), me, e);
        EXPECT_EQ(wrong, 0) << "alltoallv G=" << G << " call " << call;

        // Alltoallw: block -> peer j is row pair j of a G x 2 x kMaxBlock
        // brick, left-aligned on the sender and right-aligned on the
        // receiver.
        const std::array<idx_t, 3> full{G, 2, kMaxBlock};
        std::vector<double> brick(static_cast<std::size_t>(G * 2 * kMaxBlock), kUnset),
            out(brick.size(), kUnset);
        std::vector<Subarray> st(g), rt_types(g);
        for (std::size_t j = 0; j < g; ++j) {
          const idx_t ns = cnt[static_cast<std::size_t>(me)][j];
          const idx_t nr = cnt[j][static_cast<std::size_t>(me)];
          const idx_t jj = static_cast<idx_t>(j);
          st[j] = {full, {1, 2, ns}, {jj, 0, 0}, sizeof(double)};
          rt_types[j] = {full, {1, 2, nr}, {jj, 0, kMaxBlock - nr}, sizeof(double)};
          for (idx_t b = 0; b < 2; ++b)
            for (idx_t e = 0; e < ns; ++e)
              brick[static_cast<std::size_t>((jj * 2 + b) * kMaxBlock + e)] =
                  value(call, me, static_cast<int>(j), b * kMaxBlock + e);
        }
        c.alltoallw(brick.data(), st, out.data(), rt_types);
        wrong = 0;
        for (std::size_t j = 0; j < g; ++j) {
          const idx_t nr = cnt[j][static_cast<std::size_t>(me)];
          const idx_t jj = static_cast<idx_t>(j);
          for (idx_t b = 0; b < 2; ++b)
            for (idx_t e = 0; e < kMaxBlock; ++e) {
              const double got = out[static_cast<std::size_t>((jj * 2 + b) * kMaxBlock + e)];
              const idx_t src_e = e - (kMaxBlock - nr);
              wrong += got != (src_e >= 0 ? value(call, static_cast<int>(j), me,
                                                  b * kMaxBlock + src_e)
                                          : kUnset);
            }
        }
        EXPECT_EQ(wrong, 0) << "alltoallw G=" << G << " call " << call;
      }
    });
  }
}

TEST(Collectives, AlltoallwMovesSubarrays) {
  // Two ranks swap the halves of a 2x2x4 brick without packing.
  Runtime rt(small_opts(2));
  rt.run([](Comm& c) {
    const idx_t full[3] = {2, 2, 4};
    std::vector<double> brick(16);
    for (int i = 0; i < 16; ++i)
      brick[static_cast<std::size_t>(i)] = c.rank() * 100 + i;
    std::vector<double> out(16, -1);

    // Send the x-half `rank` of my brick to the other rank; receive into
    // the same half.
    const int other = 1 - c.rank();
    std::vector<Subarray> stypes(2), rtypes(2);
    Subarray half;
    half.full = {full[0], full[1], full[2]};
    half.sub = {1, 2, 4};
    half.off = {c.rank(), 0, 0};
    half.elem_bytes = sizeof(double);
    stypes[static_cast<std::size_t>(other)] = half;
    rtypes[static_cast<std::size_t>(other)] = half;
    c.alltoallw(brick.data(), stypes, out.data(), rtypes);

    // Half x == rank of `out` now holds the peer's half x == other.
    for (int b = 0; b < 2; ++b)
      for (int k = 0; k < 4; ++k) {
        const std::size_t idx =
            static_cast<std::size_t>((c.rank() * 2 + b) * 4 + k);
        const double peer_value = other * 100 + ((other * 2 + b) * 4 + k);
        EXPECT_DOUBLE_EQ(out[idx], peer_value);
      }
  });
}

/// The message of the error a run fails with, or "" when it succeeds.
std::string run_error(int nranks, const std::function<void(Comm&)>& fn) {
  Runtime rt(small_opts(nranks));
  try {
    rt.run(fn);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

// The exchange leader checks every matched pair of blocks before pricing;
// a pair that disagrees fails the run with an error naming the routine.
TEST(Collectives, AlltoallvRejectsMismatchedCounts) {
  const std::string err = run_error(3, [](Comm& c) {
    std::vector<std::size_t> counts(3, 8), displs{0, 8, 16};
    std::vector<std::size_t> rcounts = counts;
    if (c.rank() == 1) rcounts[2] = 4;  // rank 2 sends 8 bytes to rank 1
    std::vector<std::byte> sbuf(24), rbuf(24);
    c.alltoallv(sbuf.data(), counts, displs, rbuf.data(), rcounts, displs);
  });
  EXPECT_NE(err.find("alltoallv"), std::string::npos) << err;
}

TEST(Collectives, AlltoallwRejectsSendTypeWithoutReceiveType) {
  const std::string err = run_error(2, [](Comm& c) {
    std::vector<double> brick(8), out(8);
    std::vector<Subarray> stypes(2), rtypes(2);
    if (c.rank() == 0)
      stypes[1] = {{1, 2, 4}, {1, 2, 4}, {0, 0, 0}, sizeof(double)};
    c.alltoallw(brick.data(), stypes, out.data(), rtypes);
  });
  EXPECT_NE(err.find("alltoallw"), std::string::npos) << err;
}

TEST(Collectives, AlltoallwRejectsTransposedShapeOfEqualBytes) {
  const std::string err = run_error(2, [](Comm& c) {
    std::vector<double> brick(16), out(16);
    std::vector<Subarray> stypes(2), rtypes(2);
    if (c.rank() == 0)
      stypes[1] = {{1, 4, 4}, {1, 2, 4}, {0, 0, 0}, sizeof(double)};
    else
      rtypes[0] = {{1, 4, 4}, {1, 4, 2}, {0, 0, 0}, sizeof(double)};
    c.alltoallw(brick.data(), stypes, out.data(), rtypes);
  });
  EXPECT_NE(err.find("alltoallw"), std::string::npos) << err;
}

TEST(Collectives, SettlePhaseRaisesClocksConsistently) {
  Runtime rt(small_opts(4));
  rt.run([](Comm& c) {
    std::vector<std::pair<int, double>> sends;
    for (int j = 0; j < 4; ++j)
      if (j != c.rank()) sends.push_back({j, 1 << 20});
    const double t =
        c.settle_phase(sends, net::CollectiveAlg::P2PNonBlocking,
                       MemSpace::Device);
    EXPECT_GT(t, 0);
    EXPECT_GE(c.vtime(), t);
  });
}

TEST(Collectives, GatherAssemblesOnRootOnly) {
  Runtime rt(small_opts(5));
  rt.run([](Comm& c) {
    const int mine = c.rank() * c.rank();
    std::vector<int> all(5, -1);
    c.gather(&mine, sizeof(int), all.data(), 2);
    if (c.rank() == 2) {
      EXPECT_EQ(all, (std::vector<int>{0, 1, 4, 9, 16}));
    } else {
      EXPECT_EQ(all, (std::vector<int>(5, -1)));  // untouched off-root
    }
  });
}

TEST(Collectives, ScatterDistributesFromRoot) {
  Runtime rt(small_opts(4));
  rt.run([](Comm& c) {
    std::vector<int> src = {10, 20, 30, 40};
    int got = -1;
    c.scatter(c.rank() == 1 ? src.data() : nullptr, sizeof(int), &got, 1);
    EXPECT_EQ(got, 10 * (c.rank() + 1));
  });
}

TEST(Collectives, ReduceOntoRoot) {
  Runtime rt(small_opts(6));
  rt.run([](Comm& c) {
    double v = c.rank() + 1.0;
    c.reduce(&v, 1, Op::Sum, 3);
    if (c.rank() == 3) {
      EXPECT_DOUBLE_EQ(v, 21.0);
    } else {
      EXPECT_DOUBLE_EQ(v, c.rank() + 1.0);  // inputs preserved
    }
  });
}

TEST(Collectives, InclusiveScan) {
  Runtime rt(small_opts(5));
  rt.run([](Comm& c) {
    double v = c.rank() + 1.0;
    c.scan(&v, 1, Op::Sum);
    // Inclusive prefix sum of 1..5.
    const double want[] = {1, 3, 6, 10, 15};
    EXPECT_DOUBLE_EQ(v, want[c.rank()]);
    double m = static_cast<double>(c.rank() % 3);
    c.scan(&m, 1, Op::Max);
    const double want_max[] = {0, 1, 2, 2, 2};
    EXPECT_DOUBLE_EQ(m, want_max[c.rank()]);
  });
}

TEST(P2P, SendRecvSelfExchange) {
  Runtime rt(small_opts(2));
  rt.run([](Comm& c) {
    const int other = 1 - c.rank();
    const double mine = 1.5 + c.rank();
    double got = 0;
    c.sendrecv(&mine, sizeof(mine), other, 3, &got, sizeof(got), other, 3);
    EXPECT_DOUBLE_EQ(got, 1.5 + other);
  });
}

TEST(Split, ColorsPartitionAndKeysOrder) {
  Runtime rt(small_opts(6));
  rt.run([](Comm& c) {
    // Even/odd split, reversed key order.
    Comm sub = c.split(c.rank() % 2, -c.rank());
    ASSERT_TRUE(sub.valid());
    EXPECT_EQ(sub.size(), 3);
    // Highest parent rank gets sub-rank 0 (key = -rank): sub-rank equals
    // the number of same-parity ranks above mine.
    const int top = c.rank() % 2 == 0 ? 4 : 5;
    EXPECT_EQ(sub.rank(), (top - c.rank()) / 2) << "parent rank " << c.rank();
    // The sub-communicator works: sum of parent ranks within my parity.
    double v = c.rank();
    sub.allreduce(&v, 1, Op::Sum);
    EXPECT_DOUBLE_EQ(v, c.rank() % 2 == 0 ? 6.0 : 9.0);
  });
}

TEST(Split, NegativeColorYieldsInvalidComm) {
  Runtime rt(small_opts(4));
  rt.run([](Comm& c) {
    Comm sub = c.split(c.rank() == 0 ? 0 : -1, 0);
    EXPECT_EQ(sub.valid(), c.rank() == 0);
  });
}

TEST(Split, CreateGroupSelectsMembers) {
  Runtime rt(small_opts(6));
  rt.run([](Comm& c) {
    Comm sub = c.create_group({1, 3, 5});
    if (c.rank() % 2 == 1) {
      ASSERT_TRUE(sub.valid());
      EXPECT_EQ(sub.size(), 3);
      EXPECT_EQ(sub.rank(), c.rank() / 2);
    } else {
      EXPECT_FALSE(sub.valid());
    }
  });
}

TEST(VirtualTime, AdvanceAccumulates) {
  Runtime rt(small_opts(1));
  rt.run([](Comm& c) {
    EXPECT_DOUBLE_EQ(c.vtime(), 0.0);
    c.advance(1.5);
    c.advance(0.25);
    EXPECT_DOUBLE_EQ(c.vtime(), 1.75);
    EXPECT_THROW(c.advance(-1.0), Error);
  });
  EXPECT_DOUBLE_EQ(rt.final_vtime(0), 1.75);
}

TEST(VirtualTime, GpuAwareFasterThanStagedForDeviceBuffers) {
  auto comm_time = [&](bool aware) {
    RuntimeOptions o = small_opts(12);
    o.gpu_aware = aware;
    Runtime rt(o);
    double t = 0;
    rt.run([&t](Comm& c) {
      const std::size_t bytes = 8 << 20;
      std::vector<std::byte> buf(bytes);
      if (c.rank() == 0) {
        c.send(buf.data(), bytes, 6, 0, MemSpace::Device);  // inter-node
      } else if (c.rank() == 6) {
        c.recv(buf.data(), bytes, 0, 0, MemSpace::Device);
        t = c.vtime();
      }
    });
    return t;
  };
  EXPECT_LT(comm_time(true), comm_time(false));
}

TEST(VirtualTime, CollectiveTimingMatchesCostModel) {
  // Every priced exchange of the threaded runtime (alltoallv under both
  // cost models, alltoallw, settle_phase) must leave each rank's clock at
  // exactly the CommCost estimate for the same rows, machine and transfer
  // path -- the consistency contract between the two execution modes.
  const int G = 12;
  const std::size_t g = G;
  RuntimeOptions o = small_opts(G);
  Runtime rt(o);
  std::vector<int> group(G);
  std::iota(group.begin(), group.end(), 0);
  // Uneven rows: 0..4 units of 48 KiB from rank i to rank j, with empty
  // blocks (self-blocks included).
  auto uneven = [](int i, int j) {
    return static_cast<std::size_t>((i * 7 + j * 3) % 5) * (48 << 10);
  };
  auto rows_of = [g](const auto& bytes) {
    net::SendMatrix sends(g);
    for (int i = 0; i < G; ++i)
      for (int j = 0; j < G; ++j)
        if (const std::size_t b = bytes(i, j); b > 0)
          sends[static_cast<std::size_t>(i)].push_back(
              {j, static_cast<double>(b)});
    return sends;
  };
  auto expect_priced = [&](const std::vector<double>& vt,
                           const net::SendMatrix& sends,
                           net::CollectiveAlg alg, net::TransferMode mode,
                           const char* what) {
    const auto want = rt.cost().exchange(group, sends, alg, mode,
                                         net::MpiFlavor::SpectrumMPI);
    for (std::size_t i = 0; i < g; ++i)
      EXPECT_EQ(vt[i], want.per_rank[i]) << what << " rank " << i;
    return want;
  };

  auto run_alltoallv = [&](const auto& bytes, net::CollectiveAlg alg) {
    std::vector<double> vt(g);
    rt.run([&](Comm& c) {
      const int me = c.rank();
      std::vector<std::size_t> sc(g), sd(g), rc(g), rd(g);
      std::size_t so = 0, ro = 0;
      for (int j = 0; j < G; ++j) {
        const auto uj = static_cast<std::size_t>(j);
        sc[uj] = bytes(me, j);
        sd[uj] = so;
        so += sc[uj];
        rc[uj] = bytes(j, me);
        rd[uj] = ro;
        ro += rc[uj];
      }
      std::vector<std::byte> sbuf(so), rbuf(ro);
      c.alltoallv(sbuf.data(), sc, sd, rbuf.data(), rc, rd, MemSpace::Device,
                  alg);
      vt[static_cast<std::size_t>(me)] = c.vtime();
    });
    return vt;
  };
  auto uniform = [](int, int) -> std::size_t { return 1 << 20; };
  expect_priced(run_alltoallv(uniform, net::CollectiveAlg::Alltoallv),
                rows_of(uniform), net::CollectiveAlg::Alltoallv,
                net::TransferMode::GpuAware, "uniform alltoallv");
  for (net::CollectiveAlg alg :
       {net::CollectiveAlg::Alltoall, net::CollectiveAlg::Alltoallv})
    expect_priced(run_alltoallv(uneven, alg), rows_of(uneven), alg,
                  net::TransferMode::GpuAware, "uneven alltoallv");

  // Alltoallw: the block to rank j is a 2 x n slab of row j of a
  // G x 2 x 4 Ki brick of complex elements, n from the uneven rows.
  auto slab = [](int i, int j) {
    return static_cast<idx_t>((i * 7 + j * 3) % 5) * 1024;
  };
  auto slab_bytes = [&slab](int i, int j) {
    return static_cast<std::size_t>(2 * slab(i, j)) * sizeof(cplx);
  };
  auto run_alltoallw = [&](MemSpace space) {
    std::vector<double> vt(g);
    rt.run([&](Comm& c) {
      const int me = c.rank();
      const std::array<idx_t, 3> full{G, 2, 4096};
      std::vector<cplx> brick(g * 2 * 4096), out(brick.size());
      std::vector<Subarray> st(g), rtypes(g);
      for (int j = 0; j < G; ++j) {
        const auto uj = static_cast<std::size_t>(j);
        st[uj] = {full, {1, 2, slab(me, j)}, {j, 0, 0}, sizeof(cplx)};
        rtypes[uj] = {full, {1, 2, slab(j, me)}, {j, 0, 0}, sizeof(cplx)};
      }
      c.alltoallw(brick.data(), st, out.data(), rtypes, space);
      vt[static_cast<std::size_t>(me)] = c.vtime();
    });
    return vt;
  };
  // SpectrumMPI has no GPU-aware Alltoallw: the GpuAware price is the
  // Staged one.
  const auto aware = expect_priced(
      run_alltoallw(MemSpace::Device), rows_of(slab_bytes),
      net::CollectiveAlg::Alltoallw, net::TransferMode::GpuAware,
      "alltoallw device");
  EXPECT_EQ(aware.per_rank,
            rt.cost()
                .exchange(group, rows_of(slab_bytes),
                          net::CollectiveAlg::Alltoallw,
                          net::TransferMode::Staged,
                          net::MpiFlavor::SpectrumMPI)
                .per_rank);
  expect_priced(run_alltoallw(MemSpace::Host), rows_of(slab_bytes),
                net::CollectiveAlg::Alltoallw, net::TransferMode::Host,
                "alltoallw host");

  // settle_phase prices rows whose data moved point to point.
  const net::SendMatrix rows = rows_of(uneven);
  for (net::CollectiveAlg alg : {net::CollectiveAlg::P2PNonBlocking,
                                 net::CollectiveAlg::P2PBlocking}) {
    std::vector<double> vt(g);
    rt.run([&](Comm& c) {
      c.settle_phase(rows[static_cast<std::size_t>(c.rank())], alg,
                     MemSpace::Device);
      vt[static_cast<std::size_t>(c.rank())] = c.vtime();
    });
    expect_priced(vt, rows, alg, net::TransferMode::GpuAware,
                  "settle_phase");
  }
}

}  // namespace
}  // namespace parfft::smpi
