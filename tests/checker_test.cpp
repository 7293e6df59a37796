// AccessChecker: seeded-defect kernels (each must be flagged), their
// fixed twins (must come back clean), and conflict-freedom certification
// of the paper's algorithm suite at the degrees the theorems promise.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "alg/permutation.hpp"
#include "alg/sort.hpp"
#include "alg/sum.hpp"
#include "alg/transpose.hpp"
#include "alg/workload.hpp"
#include "analysis/checker.hpp"
#include "machine/machine.hpp"

namespace hmm {
namespace {

using analysis::AccessChecker;
using analysis::FindingKind;

// ---------------------------------------------------------------------------
// (a) Races
// ---------------------------------------------------------------------------

TEST(CheckerRace, CrossWarpWriteWriteIsFlagged) {
  Machine machine = Machine::dmm(4, 10, 8, 16);  // two warps of four
  AccessChecker checker(machine);
  machine.set_observer(&checker);

  machine.run([&](ThreadCtx& t) -> SimTask {
    if (t.thread_id() == 0 || t.thread_id() == 4) {
      co_await t.write(MemorySpace::kShared, 0, t.thread_id());
    }
  });

  ASSERT_EQ(checker.count(FindingKind::kRace), 1);
  const analysis::Finding& f = checker.findings().front();
  EXPECT_EQ(f.kind, FindingKind::kRace);
  EXPECT_EQ(f.space, MemorySpace::kShared);
  EXPECT_EQ(f.address, 0);
  EXPECT_EQ(f.access, AccessKind::kWrite);
  EXPECT_EQ(f.other_access, AccessKind::kWrite);
  EXPECT_NE(f.warp, f.other_warp);
}

TEST(CheckerRace, BarrierSeparatedWritesAreClean) {
  Machine machine = Machine::dmm(4, 10, 8, 16);
  AccessChecker checker(machine);
  machine.set_observer(&checker);

  machine.run([&](ThreadCtx& t) -> SimTask {
    if (t.thread_id() == 0) co_await t.write(MemorySpace::kShared, 0, 1);
    co_await t.barrier();  // kDmm orders the two warps
    if (t.thread_id() == 4) co_await t.write(MemorySpace::kShared, 0, 2);
  });

  EXPECT_TRUE(checker.clean()) << "spurious finding: "
                               << to_string(checker.findings().front());
}

TEST(CheckerRace, ReadWriteConflictIsFlagged) {
  Machine machine = Machine::dmm(4, 10, 8, 16);
  AccessChecker checker(machine);
  checker.declare_initialized(MemorySpace::kShared, 0, 1);
  machine.set_observer(&checker);

  machine.run([&](ThreadCtx& t) -> SimTask {
    if (t.thread_id() == 0) co_await t.read(MemorySpace::kShared, 0);
    if (t.thread_id() == 4) co_await t.write(MemorySpace::kShared, 0, 7);
  });

  ASSERT_EQ(checker.count(FindingKind::kRace), 1);
  const analysis::Finding& f = checker.findings().front();
  EXPECT_EQ(f.access, AccessKind::kWrite);
  EXPECT_EQ(f.other_access, AccessKind::kRead);
}

TEST(CheckerRace, BroadcastReadOfRacyCellIsOneFinding) {
  Machine machine = Machine::dmm(4, 10, 8, 16);
  AccessChecker checker(machine);
  machine.set_observer(&checker);

  machine.run([&](ThreadCtx& t) -> SimTask {
    if (t.thread_id() == 0) co_await t.write(MemorySpace::kShared, 3, 9);
    if (t.thread_id() >= 4) co_await t.read(MemorySpace::kShared, 3);
  });

  // Four lanes of warp 1 all read the racy cell in one dispatch: one
  // defect, not four.
  EXPECT_EQ(checker.count(FindingKind::kRace), 1);
}

TEST(CheckerRace, CrossDmmGlobalRaceNeedsMachineBarrier) {
  // kDmm barriers do NOT order warps of different DMMs on global memory.
  const auto racy = [](bool machine_barrier) {
    Machine machine = Machine::hmm(4, 10, 2, 4, 8, 8);
    AccessChecker checker(machine);
    machine.set_observer(&checker);
    machine.run([&](ThreadCtx& t) -> SimTask {
      if (t.dmm_id() == 0 && t.local_thread_id() == 0) {
        co_await t.write(MemorySpace::kGlobal, 3, 1);
      }
      co_await t.barrier(machine_barrier ? BarrierScope::kMachine
                                         : BarrierScope::kDmm);
      if (t.dmm_id() == 1 && t.local_thread_id() == 0) {
        co_await t.write(MemorySpace::kGlobal, 3, 2);
      }
    });
    return checker.count(FindingKind::kRace);
  };
  EXPECT_EQ(racy(/*machine_barrier=*/false), 1);
  EXPECT_EQ(racy(/*machine_barrier=*/true), 0);
}

// ---------------------------------------------------------------------------
// (b) Bounds and initialization
// ---------------------------------------------------------------------------

TEST(CheckerBounds, AccessOutsideDeclaredRegionIsFlagged) {
  Machine machine = Machine::dmm(4, 10, 4, 16);
  AccessChecker checker(machine);
  checker.declare_region(MemorySpace::kShared, 0, 4);
  checker.declare_initialized(MemorySpace::kShared, 0, 16);
  machine.set_observer(&checker);

  machine.run([&](ThreadCtx& t) -> SimTask {
    if (t.thread_id() == 0) co_await t.read(MemorySpace::kShared, 10);
    if (t.thread_id() == 1) co_await t.write(MemorySpace::kShared, 12, 5);
  });

  EXPECT_EQ(checker.count(FindingKind::kOutOfBounds), 2);
  EXPECT_EQ(checker.count(FindingKind::kUninitializedRead), 0);
  EXPECT_EQ(checker.count(FindingKind::kRace), 0);
}

TEST(CheckerBounds, InRegionAccessesAreClean) {
  Machine machine = Machine::dmm(4, 10, 4, 16);
  AccessChecker checker(machine);
  checker.declare_region(MemorySpace::kShared, 0, 4);
  machine.set_observer(&checker);

  machine.run([&](ThreadCtx& t) -> SimTask {
    co_await t.write(MemorySpace::kShared, t.thread_id(), 1);
    co_await t.read(MemorySpace::kShared, t.thread_id());
  });
  EXPECT_TRUE(checker.clean());
}

TEST(CheckerBounds, UninitializedReadFlaggedOncePerCell) {
  Machine machine = Machine::dmm(4, 10, 4, 16);
  AccessChecker checker(machine);
  machine.set_observer(&checker);

  machine.run([&](ThreadCtx& t) -> SimTask {
    if (t.thread_id() == 0) {
      co_await t.read(MemorySpace::kShared, 5);
      co_await t.read(MemorySpace::kShared, 5);  // same cell: no new finding
      co_await t.write(MemorySpace::kShared, 6, 1);
      co_await t.read(MemorySpace::kShared, 6);  // written first: clean
    }
  });

  EXPECT_EQ(checker.count(FindingKind::kUninitializedRead), 1);
  EXPECT_EQ(checker.findings().front().address, 5);
}

TEST(CheckerBounds, DeclareInitializedCoversHostStagedInput) {
  Machine machine = Machine::dmm(4, 10, 4, 16);
  machine.shared_memory(0).load(0, std::vector<Word>{1, 2, 3, 4});
  AccessChecker checker(machine);
  checker.declare_initialized(MemorySpace::kShared, 0, 4);
  machine.set_observer(&checker);

  machine.run([&](ThreadCtx& t) -> SimTask {
    co_await t.read(MemorySpace::kShared, t.thread_id());
  });
  EXPECT_TRUE(checker.clean());
}

// A deferred-binding checker observes the machine a driver builds, so the
// host-staged input can only be declared before that machine exists; the
// declaration is kept and applied when the checker binds.
TEST(CheckerBounds, DeclarationBeforeDeferredBindingCoversDriverInput) {
  const std::int64_t n = 4096, d = 4, pd = 64, w = 32;
  const auto xs = alg::random_words(n, 11);
  AccessChecker checker;
  checker.declare_initialized(MemorySpace::kGlobal, 0, n);
  const auto r = alg::sum_hmm(xs, d, pd, w, 100, &checker);
  EXPECT_EQ(r.sum, std::accumulate(xs.begin(), xs.end(), Word{0}));
  EXPECT_EQ(checker.count(FindingKind::kUninitializedRead), 0);
  EXPECT_TRUE(checker.clean())
      << "finding: " << to_string(checker.findings().front());

  // Without the declaration the same run reads uninitialized input.
  AccessChecker undeclared;
  (void)alg::sum_hmm(xs, d, pd, w, 100, &undeclared);
  EXPECT_GT(undeclared.count(FindingKind::kUninitializedRead), 0);
}

TEST(CheckerBounds, DeclarationBeforeDeferredBindingIsRangeCheckedOnBind) {
  const auto xs = alg::random_words(1024, 11);
  AccessChecker checker;
  checker.declare_initialized(MemorySpace::kGlobal, 0, 1 << 20);
  EXPECT_THROW((void)alg::sum_hmm(xs, 4, 64, 32, 100, &checker),
               PreconditionError);
}

// ---------------------------------------------------------------------------
// (c) Intra-warp write-write
// ---------------------------------------------------------------------------

TEST(CheckerWarp, SameAddressWritesInOneDispatchAreFlagged) {
  Machine machine = Machine::dmm(4, 10, 4, 16);  // one warp
  AccessChecker checker(machine);
  machine.set_observer(&checker);

  machine.run([&](ThreadCtx& t) -> SimTask {
    co_await t.write(MemorySpace::kShared, 7, t.thread_id());
  });

  // One colliding address, one finding (not one per lane pair).
  EXPECT_EQ(checker.count(FindingKind::kWarpWriteWrite), 1);
  EXPECT_EQ(checker.count(FindingKind::kRace), 0);
  EXPECT_EQ(checker.findings().front().address, 7);
}

TEST(CheckerWarp, DistinctAddressWritesAreClean) {
  Machine machine = Machine::dmm(4, 10, 4, 16);
  AccessChecker checker(machine);
  machine.set_observer(&checker);

  machine.run([&](ThreadCtx& t) -> SimTask {
    co_await t.write(MemorySpace::kShared, t.thread_id(), 1);
  });
  EXPECT_TRUE(checker.clean());
}

// ---------------------------------------------------------------------------
// (d) Certification of the paper's kernels
// ---------------------------------------------------------------------------

TEST(CheckerCertify, HmmSumIsRaceFreeAndConflictFree) {
  const std::int64_t n = 4096, d = 4, pd = 64, w = 32;
  const auto xs = alg::random_words(n, 11);
  Machine machine =
      Machine::hmm(w, 100, d, pd, std::max<std::int64_t>(pd, d), n + d);
  machine.global_memory().load(0, xs);
  AccessChecker checker(machine);
  checker.declare_initialized(MemorySpace::kGlobal, 0, n);
  machine.set_observer(&checker);

  const auto r = alg::sum_hmm(machine, n);
  EXPECT_EQ(r.sum, std::accumulate(xs.begin(), xs.end(), Word{0}));
  EXPECT_TRUE(checker.clean())
      << "finding: " << to_string(checker.findings().front());
  // Theorem 7's schedule is conflict-free and fully coalesced.
  EXPECT_TRUE(checker.certify_conflict_free(1));
  EXPECT_TRUE(checker.certify_coalesced(1));
}

TEST(CheckerCertify, SkewedTransposeBeatsNaiveByDegreeW) {
  const std::int64_t rows = 32, w = 32;
  const auto matrix = alg::random_words(rows * rows, 7);

  Machine skewed = Machine::dmm(w, 50, 256, 3 * rows * rows);
  skewed.shared_memory(0).load(0, matrix);
  AccessChecker skewed_checker(skewed);
  skewed_checker.declare_initialized(MemorySpace::kShared, 0, rows * rows);
  skewed.set_observer(&skewed_checker);
  const auto good = alg::transpose_mm_skewed(skewed, rows);
  EXPECT_TRUE(skewed_checker.clean());
  EXPECT_TRUE(skewed_checker.certify_conflict_free(1));

  Machine naive = Machine::dmm(w, 50, 256, 2 * rows * rows);
  naive.shared_memory(0).load(0, matrix);
  AccessChecker naive_checker(naive);
  naive_checker.declare_initialized(MemorySpace::kShared, 0, rows * rows);
  naive.set_observer(&naive_checker);
  const auto bad = alg::transpose_mm_naive(naive, rows);
  EXPECT_TRUE(naive_checker.clean());  // slow, but not incorrect
  EXPECT_FALSE(naive_checker.certify_conflict_free(1));
  // Stride-r column reads hit ONE bank w deep — the model's worst case.
  EXPECT_EQ(naive_checker.shared_histogram().max_degree, w);

  EXPECT_EQ(good.out, bad.out);
}

TEST(CheckerCertify, OfflinePermutationIsConflictFreeOnAdversarialPi) {
  const std::int64_t w = 32, n = w * w;
  const auto input = alg::random_words(n, 3);
  const auto perm = alg::bank_crushing_permutation(n, w);

  Machine naive = Machine::dmm(w, 4, 128, 2 * n);
  naive.shared_memory(0).load(0, input);
  AccessChecker naive_checker(naive);
  naive_checker.declare_initialized(MemorySpace::kShared, 0, n);
  naive.set_observer(&naive_checker);
  const auto bad = alg::permute_mm_naive(naive, perm);
  EXPECT_EQ(naive_checker.shared_histogram().max_degree, w);

  const alg::PermutationSchedule schedule(perm, w);
  Machine offline = Machine::dmm(w, 4, 4 * w, 2 * n);
  offline.shared_memory(0).load(0, input);
  AccessChecker offline_checker(offline);
  offline_checker.declare_initialized(MemorySpace::kShared, 0, n);
  offline.set_observer(&offline_checker);
  const auto good = alg::permute_mm_offline(offline, schedule);
  EXPECT_TRUE(offline_checker.clean());
  EXPECT_TRUE(offline_checker.certify_conflict_free(1));

  EXPECT_EQ(good.out, bad.out);
}

TEST(CheckerCertify, BitonicSortStaysWithinTwoGroupsAndRuns) {
  const std::int64_t n = 512;
  const auto xs = alg::random_words(n, 5);
  Machine machine = Machine::umm(32, 16, 128, n);
  machine.global_memory().load(0, xs);
  AccessChecker checker(machine);
  checker.declare_initialized(MemorySpace::kGlobal, 0, n);
  machine.set_observer(&checker);

  const auto r = alg::sort_mm(machine, MemorySpace::kGlobal, n);
  EXPECT_TRUE(std::is_sorted(r.sorted.begin(), r.sorted.end()));
  EXPECT_TRUE(checker.clean());
  // Every compare-exchange touches at most two contiguous runs; the
  // stages with stride < w are exactly the two-group ones.
  EXPECT_TRUE(checker.certify_coalesced(2));
  EXPECT_FALSE(checker.certify_coalesced(1));
  EXPECT_EQ(checker.global_histogram().max_degree, 2);
}

TEST(CheckerCertify, HmmSortIsRaceFreeAtDegreeTwo) {
  const std::int64_t n = 1024, d = 4;
  const auto xs = alg::random_words(n, 9);
  Machine machine = Machine::hmm(32, 16, d, 64, n / d, n);
  machine.global_memory().load(0, xs);
  AccessChecker checker(machine);
  checker.declare_initialized(MemorySpace::kGlobal, 0, n);
  machine.set_observer(&checker);

  const auto r = alg::sort_hmm(machine, n);
  EXPECT_TRUE(std::is_sorted(r.sorted.begin(), r.sorted.end()));
  EXPECT_TRUE(checker.clean())
      << "finding: " << to_string(checker.findings().front());
  EXPECT_TRUE(checker.certify_conflict_free(2));
  EXPECT_TRUE(checker.certify_coalesced(2));
}

// ---------------------------------------------------------------------------
// Config and plumbing
// ---------------------------------------------------------------------------

TEST(CheckerConfig, DisabledCategoriesStaySilent) {
  analysis::CheckerConfig cfg;
  cfg.race = false;
  cfg.bounds = false;
  Machine machine = Machine::dmm(4, 10, 8, 16);
  AccessChecker checker(machine, cfg);
  machine.set_observer(&checker);

  machine.run([&](ThreadCtx& t) -> SimTask {
    if (t.thread_id() == 0) co_await t.read(MemorySpace::kShared, 5);
    if (t.thread_id() == 4) co_await t.write(MemorySpace::kShared, 5, 1);
  });

  EXPECT_EQ(checker.count(FindingKind::kRace), 0);
  EXPECT_EQ(checker.count(FindingKind::kUninitializedRead), 0);
  EXPECT_GT(checker.shared_histogram().batches, 0);  // conflict still on
}

TEST(CheckerConfig, FindingStorageIsCappedButCountsAreNot) {
  analysis::CheckerConfig cfg;
  cfg.max_findings = 2;
  Machine machine = Machine::dmm(4, 10, 4, 16);
  AccessChecker checker(machine, cfg);
  machine.set_observer(&checker);

  machine.run([&](ThreadCtx& t) -> SimTask {
    if (t.thread_id() == 0) {
      for (Address a = 0; a < 5; ++a) {
        co_await t.read(MemorySpace::kShared, a);
      }
    }
  });

  EXPECT_EQ(checker.count(FindingKind::kUninitializedRead), 5);
  EXPECT_EQ(checker.findings().size(), 2u);
}

TEST(CheckerConfig, ResetFindingsKeepsInitializedState) {
  Machine machine = Machine::dmm(4, 10, 4, 16);
  AccessChecker checker(machine);
  machine.set_observer(&checker);

  machine.run([&](ThreadCtx& t) -> SimTask {
    if (t.thread_id() == 0) {
      co_await t.write(MemorySpace::kShared, 2, 1);
      co_await t.read(MemorySpace::kShared, 3);  // uninit
    }
  });
  EXPECT_EQ(checker.count(FindingKind::kUninitializedRead), 1);
  checker.reset_findings();
  EXPECT_TRUE(checker.clean());
  EXPECT_TRUE(checker.findings().empty());

  // Cell 2 stays initialized across the reset and the next run.
  machine.run([&](ThreadCtx& t) -> SimTask {
    if (t.thread_id() == 0) co_await t.read(MemorySpace::kShared, 2);
  });
  EXPECT_TRUE(checker.clean());
}

TEST(CheckerConfig, DetachedObserverCostsNothingAndFindsNothing) {
  Machine machine = Machine::dmm(4, 10, 4, 16);
  AccessChecker checker(machine);
  machine.set_observer(&checker);
  machine.set_observer(nullptr);
  EXPECT_EQ(machine.observer(), nullptr);

  machine.run([&](ThreadCtx& t) -> SimTask {
    co_await t.read(MemorySpace::kShared, t.thread_id());  // uninit reads
  });
  EXPECT_TRUE(checker.clean());
}

}  // namespace
}  // namespace hmm
