// Anchor translation unit for bench_common.h (header-only helpers) plus
// the scheme factories shared by the figure benches.

#include "bench_common.h"

#include <cstring>
#include <utility>

#include "bench_schemes.h"
#include "obs/export.h"

namespace ssjoin::bench {

namespace {

// Returns the value of `--name V` / `--name=V` at argv[*i], or nullptr.
const char* FlagValue(const char* name, int argc, char** argv, int* i) {
  std::string prefix = std::string("--") + name;
  const char* arg = argv[*i];
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return nullptr;
  const char* rest = arg + prefix.size();
  if (*rest == '=') return rest + 1;
  if (*rest != '\0') return nullptr;  // e.g. --threadsX
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "error: %s needs a value\n", prefix.c_str());
    std::exit(2);
  }
  return argv[++*i];
}

}  // namespace

BenchFlags ParseBenchFlags(int argc, char** argv) {
  BenchFlags flags;
  for (int i = 1; i < argc; ++i) {
    if (const char* v = FlagValue("threads", argc, argv, &i)) {
      char* end = nullptr;
      long n = std::strtol(v, &end, 10);
      if (end == v || *end != '\0' || n < 0) {
        std::fprintf(stderr, "error: --threads wants an integer >= 0\n");
        std::exit(2);
      }
      flags.threads = static_cast<size_t>(n);
      flags.threads_given = true;
    } else if (const char* v2 = FlagValue("json-out", argc, argv, &i)) {
      flags.json_out = v2;
    } else if (const char* v3 = FlagValue("deadline-ms", argc, argv, &i)) {
      char* end = nullptr;
      long n = std::strtol(v3, &end, 10);
      if (end == v3 || *end != '\0' || n < 0) {
        std::fprintf(stderr, "error: --deadline-ms wants an integer >= 0\n");
        std::exit(2);
      }
      flags.budget.deadline_ms = n;
      flags.guard_given = flags.guard_given || n > 0;
    } else if (const char* v4 =
                   FlagValue("memory-budget-mb", argc, argv, &i)) {
      char* end = nullptr;
      long n = std::strtol(v4, &end, 10);
      if (end == v4 || *end != '\0' || n < 0) {
        std::fprintf(stderr,
                     "error: --memory-budget-mb wants an integer >= 0\n");
        std::exit(2);
      }
      flags.budget.memory_budget_bytes =
          static_cast<size_t>(n) * 1024 * 1024;
      flags.guard_given = flags.guard_given || n > 0;
    } else if (const char* v5 =
                   FlagValue("max-candidate-ratio", argc, argv, &i)) {
      char* end = nullptr;
      double r = std::strtod(v5, &end);
      if (end == v5 || *end != '\0' || r < 0) {
        std::fprintf(stderr,
                     "error: --max-candidate-ratio wants a number >= 0\n");
        std::exit(2);
      }
      flags.budget.max_candidate_ratio = r;
      flags.guard_given = flags.guard_given || r > 0;
    } else if (const char* v6 = FlagValue("report-out", argc, argv, &i)) {
      flags.report_out = v6;
    } else if (const char* v7 = FlagValue("trace-out", argc, argv, &i)) {
      flags.trace_out = v7;
    } else if (const char* v8 = FlagValue("metrics-out", argc, argv, &i)) {
      flags.metrics_out = v8;
    } else if (const char* v9 = FlagValue("explain-out", argc, argv, &i)) {
      flags.explain_out = v9;
    } else {
      std::fprintf(stderr,
                   "error: unknown argument '%s'\n"
                   "usage: %s [--threads N] [--json-out PATH] "
                   "[--deadline-ms N] [--memory-budget-mb N] "
                   "[--max-candidate-ratio F] [--report-out PATH] "
                   "[--trace-out PATH] [--metrics-out PATH] "
                   "[--explain-out PATH]\n",
                   argv[i], argv[0]);
      std::exit(2);
    }
  }
  return flags;
}

BenchRun::BenchRun(std::string bench_name, const BenchFlags& flags)
    : name_(std::move(bench_name)), flags_(flags) {}

JoinOptions BenchRun::Options() {
  JoinOptions options;
  if (flags_.threads_given) options.num_threads = flags_.threads;
  options.tracer = &tracer_;
  options.metrics = &metrics_;
  options.explain = explain();
  return options;
}

JoinResult BenchRun::Run(const SetCollection* left,
                         const SetCollection* right,
                         const SignatureScheme& scheme,
                         const Predicate& predicate, ExecutionMode mode,
                         JoinOptions options) {
  options.tracer = &tracer_;
  options.metrics = &metrics_;
  options.explain = explain();
  JoinRequest request;
  request.left = left;
  request.right = right;
  request.scheme = &scheme;
  request.predicate = &predicate;
  request.mode = mode;
  request.options = options;
  return Join(request);
}

JoinResult BenchRun::SelfJoin(const SetCollection& input,
                              const SignatureScheme& scheme,
                              const Predicate& predicate) {
  return SelfJoin(input, scheme, predicate, Options());
}

JoinResult BenchRun::SelfJoin(const SetCollection& input,
                              const SignatureScheme& scheme,
                              const Predicate& predicate,
                              JoinOptions options) {
  return Run(&input, nullptr, scheme, predicate, ExecutionMode::kSelfJoin,
             std::move(options));
}

JoinResult BenchRun::BinaryJoin(const SetCollection& r,
                                const SetCollection& s,
                                const SignatureScheme& scheme,
                                const Predicate& predicate) {
  return BinaryJoin(r, s, scheme, predicate, Options());
}

JoinResult BenchRun::BinaryJoin(const SetCollection& r,
                                const SetCollection& s,
                                const SignatureScheme& scheme,
                                const Predicate& predicate,
                                JoinOptions options) {
  return Run(&r, &s, scheme, predicate, ExecutionMode::kBinaryJoin,
             std::move(options));
}

bool BenchRun::Finish() {
  std::string report = flags_.report_out.empty()
                           ? "BENCH_" + name_ + "_report.jsonl"
                           : flags_.report_out;
  Status status = obs::WriteJsonlReport(&tracer_, &metrics_, report);
  if (status.ok()) {
    std::printf("wrote %s\n", report.c_str());
    if (!flags_.trace_out.empty()) {
      status = obs::WriteTraceAuto(tracer_, flags_.trace_out);
    }
  }
  if (status.ok() && !flags_.metrics_out.empty()) {
    status = obs::WriteMetricsJsonl(metrics_, flags_.metrics_out);
  }
  if (status.ok() && !flags_.explain_out.empty()) {
    status = obs::WriteExplainJsonl(explain_, flags_.explain_out);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return false;
  }
  return true;
}

bool WriteParallelScalingJson(const std::string& path,
                              const std::string& workload,
                              size_t input_size,
                              const std::vector<ScalingPoint>& points) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  double baseline = 0;
  for (const ScalingPoint& p : points) {
    if (p.threads == 1) baseline = p.wall_seconds;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"parallel_scaling\",\n"
               "  \"workload\": \"%s\",\n"
               "  \"input_size\": %zu,\n"
               "  \"baseline_wall_seconds\": %.6f,\n"
               "  \"points\": [\n",
               workload.c_str(), input_size, baseline);
  for (size_t i = 0; i < points.size(); ++i) {
    const ScalingPoint& p = points[i];
    double speedup =
        p.wall_seconds > 0 && baseline > 0 ? baseline / p.wall_seconds : 0;
    std::fprintf(
        out,
        "    {\"threads\": %zu, \"wall_seconds\": %.6f, "
        "\"siggen_seconds\": %.6f, \"candpair_seconds\": %.6f, "
        "\"postfilter_seconds\": %.6f, \"total_seconds\": %.6f, "
        "\"candidates\": %llu, \"results\": %llu, "
        "\"speedup_vs_1_thread\": %.3f}%s\n",
        p.threads, p.wall_seconds, p.stats.siggen_seconds,
        p.stats.candpair_seconds, p.stats.postfilter_seconds,
        p.stats.TotalSeconds(),
        static_cast<unsigned long long>(p.stats.candidates),
        static_cast<unsigned long long>(p.stats.results), speedup,
        i + 1 < points.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  if (std::fclose(out) != 0) {
    std::fprintf(stderr, "error: write failed for %s\n", path.c_str());
    return false;
  }
  return true;
}

Result<SchemeUnderTest> MakeJaccardScheme(Algo algo,
                                          const SetCollection& input,
                                          double gamma, double lsh_delta,
                                          obs::ExplainReport* explain) {
  obs::AdvisorTrace trace;
  SchemeUnderTest out;
  switch (algo) {
    case Algo::kPartEnum: {
      PartEnumJaccardParams params;
      params.gamma = gamma;
      params.max_set_size = input.max_set_size();
      // Tune the per-interval (n1, n2) shape on a sample, as the paper
      // does ("we used the optimal settings of parameters").
      uint32_t avg = static_cast<uint32_t>(input.average_set_size() + 0.5);
      uint32_t k = PartEnumJaccardScheme::EquisizedHammingThreshold(
          std::max(1u, avg), gamma);
      AdvisorOptions advisor;
      advisor.sample_size = 1000;
      advisor.max_signatures_per_set = 512;
      if (explain != nullptr) advisor.trace = &trace;
      auto choice = ChoosePartEnumParams(input, k, input.size(), advisor);
      if (choice.ok()) {
        PartEnumParams tuned = choice->params;
        params.chooser = [tuned](uint32_t threshold) {
          PartEnumParams p = tuned;
          p.k = threshold;
          return p;
        };
      }
      obs::AttachAdvisorTrace(explain, trace);
      auto scheme = PartEnumJaccardScheme::Create(params);
      if (!scheme.ok()) return scheme.status();
      out.scheme = std::make_shared<PartEnumJaccardScheme>(
          std::move(scheme).value());
      out.label = "PEN";
      return out;
    }
    case Algo::kLsh: {
      AdvisorOptions advisor;
      if (explain != nullptr) advisor.trace = &trace;
      auto choice = ChooseLshParams(input, gamma, lsh_delta, 6, 0, advisor);
      LshParams params = choice.ok()
                             ? choice->params
                             : LshParams::ForAccuracy(gamma, lsh_delta, 3);
      obs::AttachAdvisorTrace(explain, trace);
      auto scheme = LshScheme::Create(params);
      if (!scheme.ok()) return scheme.status();
      out.scheme = std::make_shared<LshScheme>(std::move(scheme).value());
      char label[32];
      std::snprintf(label, sizeof(label), "LSH(%.2f)", 1.0 - lsh_delta);
      out.label = label;
      return out;
    }
    case Algo::kPrefixFilter: {
      auto predicate = std::make_shared<JaccardPredicate>(gamma);
      auto scheme = PrefixFilterScheme::Create(predicate, input);
      if (!scheme.ok()) return scheme.status();
      out.scheme = std::make_shared<PrefixFilterScheme>(
          std::move(scheme).value());
      out.label = "PF";
      return out;
    }
  }
  return Status::InvalidArgument("unknown algorithm");
}

}  // namespace ssjoin::bench
