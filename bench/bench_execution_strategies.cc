// Supporting experiment: execution strategies for the same Figure-2
// outline. The paper argues engineering details (indexing, pipelining,
// DBMS-vs-custom) are "mostly orthogonal to the high-level outline" —
// here the sort-based self-join and a binary (R x S) join over the two
// halves of the input run the same PartEnum scheme.

// Pass --threads N to additionally run every strategy at N workers: the
// parallel rows must reproduce the serial output and counters exactly
// (the determinism contract of DESIGN.md Section 6), differing only in
// wall time; a divergence exits 1.

#include "bench_common.h"
#include "bench_schemes.h"
#include "core/predicate.h"
#include "util/thread_pool.h"

using namespace ssjoin;
using namespace ssjoin::bench;

int main(int argc, char** argv) {
  BenchFlags flags = ParseBenchFlags(argc, argv);
  BenchRun run("execution_strategies", flags);
  size_t threads =
      flags.threads_given ? ResolveThreadCount(flags.threads) : 1;
  std::printf("=== Execution strategies: sorted self vs binary ===\n\n");
  PrintTimeHeader();
  for (size_t size : {Scaled(5000), Scaled(20000)}) {
    SetCollection input = AddressTokenSets(size);
    for (double gamma : {0.9, 0.8}) {
      auto made = MakeJaccardScheme(Algo::kPartEnum, input, gamma);
      if (!made.ok()) continue;
      JaccardPredicate predicate(gamma);
      char threshold[16];
      std::snprintf(threshold, sizeof(threshold), "%.2f", gamma);

      JoinResult sorted =
          run.SelfJoin(input, *made->scheme, predicate, JoinOptions{});
      PrintTimeRow(size, threshold, "self/sorted", sorted.stats);

      // Binary: split the collection into halves R and S.
      SetCollectionBuilder r_builder, s_builder;
      for (SetId id = 0; id < input.size(); ++id) {
        (id % 2 == 0 ? r_builder : s_builder).Add(input.set(id));
      }
      SetCollection r = r_builder.Build();
      SetCollection s = s_builder.Build();
      JoinResult binary =
          run.BinaryJoin(r, s, *made->scheme, predicate, JoinOptions{});
      PrintTimeRow(size, threshold, "binary/halves", binary.stats);

      if (threads > 1) {
        JoinOptions options;
        options.num_threads = threads;
        char label[40];
        std::snprintf(label, sizeof(label), "self/sorted(t=%zu)", threads);
        JoinResult par_sorted =
            run.SelfJoin(input, *made->scheme, predicate, options);
        PrintTimeRow(size, threshold, label, par_sorted.stats);
        std::snprintf(label, sizeof(label), "binary/halves(t=%zu)",
                      threads);
        JoinResult par_binary =
            run.BinaryJoin(r, s, *made->scheme, predicate, options);
        PrintTimeRow(size, threshold, label, par_binary.stats);
        if (par_sorted.pairs != sorted.pairs ||
            par_binary.pairs != binary.pairs) {
          std::printf("!! parallel output DIVERGES from serial\n");
          return 1;
        }
      }
    }
    std::printf("\n");
  }
  std::printf(
      "(expected: identical candidates/results between serial and\n"
      " parallel rows; the paper's 'relative performances similar for\n"
      " binary SSJoins' expectation shows as proportional costs on the\n"
      " halves)\n");
  return run.Finish() ? 0 : 1;
}
