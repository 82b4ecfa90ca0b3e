// Job runner of the end-to-end join benchmark (driven by run.py).
//
//   perfbench prepare --input address|uniform --seed <n> --sets <n>
//                     --out <file> [--reference <file>]
//       Generates one input with the library's data generators and writes
//       it to --out: address strings as text, uniform sets in the binary
//       format. With --reference, reads the input back the way a job does
//       and writes its reference pair list. The reference comes from an
//       exact algorithm other than the PartEnum join under test: the prefix
//       filter for the address input, and a pigeonhole partition join
//       written here for the uniform input.
//
//   perfbench job --workload <name> --input <file> --reference <file>
//                 --spill-dir <dir> [--trace 0|1] [--trace-out <file>]
//                 [--drop-pair 0|1]
//       Runs one batch job as a user would: load -> tokenize -> tune ->
//       Join(), timed from outside. Afterwards, untimed, it compares the
//       pairs with the reference, re-checks every emitted pair with the
//       predicate, and prints one JSON object. --trace 1 attaches the
//       library's MetricsRegistry and Tracer through JoinOptions (and the
//       advisor's search trace) for the per-layer numbers. --drop-pair 1
//       drops one emitted pair before the checks, so the self-test can
//       prove a wrong pair list is caught.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "baselines/prefix_filter.h"
#include "core/execution_guard.h"
#include "core/parameter_advisor.h"
#include "core/partenum_jaccard.h"
#include "core/predicate.h"
#include "core/ssjoin.h"
#include "data/generators.h"
#include "data/loader.h"
#include "data/serialization.h"
#include "obs/explain.h"
#include "obs/export.h"
#include "obs/json_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "text/tokenizer.h"
#include "util/hashing.h"

namespace ssjoin::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// The two generated inputs. Both address workloads share one input file.
struct InputSpec {
  std::string_view name;
  double gamma;
};
constexpr InputSpec kAddress{"address", 0.8};
constexpr InputSpec kUniform{"uniform", 0.9};

struct Workload {
  std::string_view name;
  const InputSpec* input;
  size_t threads;
  // (n1, n2) from ChoosePartEnumParams at the equi-sized hamming threshold,
  // as `ssjoin explain` tunes; otherwise PartEnumParams::Default, as
  // `ssjoin jaccard --algo pen` ships.
  bool tuned;
  // A memory budget with SpillPolicy::kAuto, small enough that the join
  // degrades to the disk-partitioned path.
  bool spill;
};

// Every workload runs on one thread. At four threads the default and spill
// joins moved by 40-60% between runs minutes apart on a shared 4-vCPU VM,
// while single-thread jobs stayed within 5%: too noisy to gate on.
constexpr Workload kWorkloads[] = {
    {"address-tuned", &kAddress, 1, true, false},
    {"address-default-t1", &kAddress, 1, false, false},
    {"uniform-spill-t1", &kUniform, 1, false, true},
};

// 32 MiB at the full uniform scale (220,000 sets), scaled with the input
// size so the small self-test scale spills as well.
constexpr double kSpillBudgetBytesPerSet = 32.0 * 1024 * 1024 / 220000;

// --key value pairs after the subcommand.
class Args {
 public:
  static Result<Args> Parse(int argc, char** argv) {
    Args args;
    for (int i = 2; i < argc; i += 2) {
      std::string_view key = argv[i];
      if (key.substr(0, 2) != "--" || i + 1 >= argc) {
        return Status::InvalidArgument("expected --key value, got '" +
                                       std::string(key) + "'");
      }
      args.values_[std::string(key.substr(2))] = argv[i + 1];
    }
    return args;
  }

  Result<std::string> Str(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      return Status::InvalidArgument("--" + key + " is required");
    }
    return it->second;
  }

  std::string StrOr(const std::string& key, std::string fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  Result<uint64_t> U64(const std::string& key) const {
    SSJOIN_ASSIGN_OR_RETURN(std::string text, Str(key));
    char* end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0') {
      return Status::InvalidArgument("--" + key + " must be an integer");
    }
    return static_cast<uint64_t>(v);
  }

  bool Flag(const std::string& key) const { return StrOr(key, "0") == "1"; }

 private:
  std::map<std::string, std::string> values_;
};

// Reads an input file the way a job does (load, then tokenize strings).
Result<SetCollection> LoadInput(const std::string& path,
                                const InputSpec& input) {
  if (&input == &kUniform) return LoadSetsBinary(path);
  SSJOIN_ASSIGN_OR_RETURN(std::vector<std::string> strings,
                          LoadStrings(path));
  return WordTokenizer().TokenizeAll(strings);
}

// A plain merge, so the re-check does not rely on the library's
// intersection kernels that the join under test uses.
uint32_t Overlap(std::span<const ElementId> a, std::span<const ElementId> b) {
  uint32_t overlap = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++overlap;
      ++i;
      ++j;
    }
  }
  return overlap;
}

bool PairMatches(const SetCollection& input, const Predicate& predicate,
                 const SetPair& pair) {
  if (pair.first >= pair.second || pair.second >= input.size()) return false;
  return predicate.Matches(input.set_size(pair.first),
                           input.set_size(pair.second),
                           Overlap(input.set(pair.first),
                                   input.set(pair.second)));
}

// Exact self-join by pigeonhole: a jaccard-gamma match of sets of at most
// M elements differs in at most k = (1-gamma) * 2M / (1+gamma) elements,
// so after hashing the element domain into k + 1 groups the two sets agree
// exactly on at least one group's projection. Pairs sharing a projection
// are candidates and are verified with the predicate. Cheap on the
// unskewed uniform input, where a projection is almost never shared by
// chance; the prefix filter would probe ~1000-set posting lists there.
std::vector<SetPair> PartitionSelfJoin(const SetCollection& input,
                                       const Predicate& predicate,
                                       double gamma) {
  const double bound =
      (1 - gamma) * 2.0 * input.max_set_size() / (1 + gamma);
  const uint64_t groups = static_cast<uint64_t>(std::floor(bound + 1e-6)) + 1;
  std::vector<std::pair<uint64_t, SetId>> keys;
  keys.reserve(input.size() * groups);
  std::vector<uint64_t> group_hash(groups);
  for (SetId id = 0; id < input.size(); ++id) {
    for (uint64_t g = 0; g < groups; ++g) group_hash[g] = Mix64(g + 1);
    for (ElementId e : input.set(id)) {
      uint64_t& h = group_hash[Mix64(e) % groups];
      h = Mix64(h ^ e);
    }
    for (uint64_t g = 0; g < groups; ++g) {
      keys.emplace_back(Mix64(group_hash[g] + g), id);
    }
  }
  std::sort(keys.begin(), keys.end());
  std::vector<SetPair> candidates;
  for (size_t begin = 0; begin < keys.size();) {
    size_t end = begin + 1;
    while (end < keys.size() && keys[end].first == keys[begin].first) ++end;
    for (size_t i = begin; i < end; ++i) {
      for (size_t j = i + 1; j < end; ++j) {
        candidates.emplace_back(keys[i].second, keys[j].second);
      }
    }
    begin = end;
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  std::vector<SetPair> pairs;
  for (const SetPair& pair : candidates) {
    if (PairMatches(input, predicate, pair)) pairs.push_back(pair);
  }
  return pairs;
}

Result<std::vector<SetPair>> ReferencePairs(const SetCollection& input,
                                            const InputSpec& spec) {
  auto predicate = std::make_shared<JaccardPredicate>(spec.gamma);
  if (&spec == &kUniform) {
    return PartitionSelfJoin(input, *predicate, spec.gamma);
  }
  SSJOIN_ASSIGN_OR_RETURN(PrefixFilterScheme scheme,
                          PrefixFilterScheme::Create(predicate, input));
  JoinOptions options;
  options.num_threads = 4;
  JoinResult result =
      Join(SelfJoinRequest(input, scheme, *predicate, options));
  SSJOIN_RETURN_NOT_OK(result.status);
  std::sort(result.pairs.begin(), result.pairs.end());
  return std::move(result.pairs);
}

Status WritePairs(const std::string& path, const std::vector<SetPair>& pairs) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  std::vector<uint32_t> flat;
  flat.reserve(pairs.size() * 2);
  for (const SetPair& p : pairs) {
    flat.push_back(p.first);
    flat.push_back(p.second);
  }
  bool ok = std::fwrite(flat.data(), sizeof(uint32_t), flat.size(), f) ==
            flat.size();
  ok = (std::fclose(f) == 0) && ok;
  return ok ? Status::OK() : Status::IOError("cannot write " + path);
}

Result<std::vector<SetPair>> ReadPairs(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  std::vector<SetPair> pairs;
  uint32_t pair[2];
  while (std::fread(pair, sizeof(uint32_t), 2, f) == 2) {
    pairs.emplace_back(pair[0], pair[1]);
  }
  bool ok = std::ferror(f) == 0;
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) return Status::IOError("cannot read " + path);
  return pairs;
}

Status Prepare(const Args& args) {
  SSJOIN_ASSIGN_OR_RETURN(std::string input_name, args.Str("input"));
  SSJOIN_ASSIGN_OR_RETURN(uint64_t seed, args.U64("seed"));
  SSJOIN_ASSIGN_OR_RETURN(uint64_t sets, args.U64("sets"));
  SSJOIN_ASSIGN_OR_RETURN(std::string path, args.Str("out"));
  const std::string reference_path = args.StrOr("reference", "");
  const InputSpec* spec = nullptr;
  if (input_name == kAddress.name) {
    spec = &kAddress;
    AddressOptions options;  // ≤3 typos per duplicate, Zipf 0.8 vocabularies
    options.num_strings = sets;
    options.duplicate_fraction = 0.1;
    options.max_typos = 3;
    options.seed = seed;
    SSJOIN_RETURN_NOT_OK(SaveStrings(path, GenerateAddressStrings(options)));
  } else if (input_name == kUniform.name) {
    spec = &kUniform;
    UniformSetOptions options;  // the paper's 50 of 10,000 elements
    options.num_sets = sets;
    options.similar_fraction = 0.1;
    options.seed = seed;
    SSJOIN_RETURN_NOT_OK(SaveSetsBinary(path, GenerateUniformSets(options)));
  } else {
    return Status::InvalidArgument("--input must be address or uniform");
  }
  if (reference_path.empty()) return Status::OK();
  Clock::time_point start = Clock::now();
  SSJOIN_ASSIGN_OR_RETURN(SetCollection input, LoadInput(path, *spec));
  SSJOIN_ASSIGN_OR_RETURN(std::vector<SetPair> pairs,
                          ReferencePairs(input, *spec));
  JaccardPredicate predicate(spec->gamma);
  for (const SetPair& pair : pairs) {
    if (!PairMatches(input, predicate, pair)) {
      return Status::Internal("reference pair fails the predicate");
    }
  }
  SSJOIN_RETURN_NOT_OK(WritePairs(reference_path, pairs));
  std::string out = "{\"reference_pairs\":";
  obs::json::AppendUint(&out, pairs.size());
  out += ",\"reference_s\":";
  obs::json::AppendDouble(&out, Seconds(start, Clock::now()));
  out += "}";
  std::printf("%s\n", out.c_str());
  return Status::OK();
}

// One flat JSON object, built key by key.
class JsonOut {
 public:
  void Num(std::string_view key, double v) {
    Key(key);
    if (std::isfinite(v)) {
      obs::json::AppendDouble(&out_, v);
    } else {
      out_ += "null";
    }
  }
  void Int(std::string_view key, uint64_t v) {
    Key(key);
    obs::json::AppendUint(&out_, v);
  }
  void Bool(std::string_view key, bool v) {
    Key(key);
    obs::json::AppendBool(&out_, v);
  }
  void Str(std::string_view key, std::string_view v) {
    Key(key);
    obs::json::AppendJsonString(&out_, v);
  }
  void Obj(std::string_view key, const JsonOut& v) {
    Key(key);
    out_ += v.str();
  }
  std::string str() const { return "{" + out_ + "}"; }

 private:
  void Key(std::string_view key) {
    if (!out_.empty()) out_ += ',';
    obs::json::AppendJsonString(&out_, key);
    out_ += ':';
  }
  std::string out_;
};

Status RunJob(const Args& args) {
  SSJOIN_ASSIGN_OR_RETURN(std::string name, args.Str("workload"));
  SSJOIN_ASSIGN_OR_RETURN(std::string path, args.Str("input"));
  SSJOIN_ASSIGN_OR_RETURN(std::string reference_path, args.Str("reference"));
  SSJOIN_ASSIGN_OR_RETURN(std::string spill_dir, args.Str("spill-dir"));
  const bool trace = args.Flag("trace");
  const bool drop_pair = args.Flag("drop-pair");
  const std::string trace_out = args.StrOr("trace-out", "");
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (w.name == name) workload = &w;
  }
  if (workload == nullptr) {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  const InputSpec& spec = *workload->input;

  std::optional<obs::Tracer> tracer;
  std::optional<obs::MetricsRegistry> metrics;
  obs::AdvisorTrace advisor_trace;
  if (trace) {
    tracer.emplace();
    metrics.emplace();
  }
  // Benchmark-side spans around each layer call; the join records its own
  // span tree into the same tracer.
  auto span = [&](std::string_view span_name) {
    return tracer ? tracer->StartSpan(span_name) : obs::kNoSpan;
  };
  auto end_span = [&](obs::SpanId id) {
    if (tracer) tracer->EndSpan(id);
  };

  // ---- timed job: load -> tokenize -> tune -> Join() ----
  const Clock::time_point job_start = Clock::now();
  obs::SpanId s = span("data.load");
  SetCollection input;
  std::vector<std::string> strings;
  if (&spec == &kUniform) {
    SSJOIN_ASSIGN_OR_RETURN(input, LoadSetsBinary(path));
  } else {
    SSJOIN_ASSIGN_OR_RETURN(strings, LoadStrings(path));
  }
  end_span(s);
  const Clock::time_point loaded = Clock::now();
  if (&spec == &kAddress) {
    s = span("text.tokenize");
    input = WordTokenizer().TokenizeAll(strings);
    end_span(s);
  }
  const Clock::time_point tokenized = Clock::now();

  std::optional<PartEnumChoice> choice;
  if (workload->tuned) {
    s = span("advisor");
    uint32_t avg = static_cast<uint32_t>(input.average_set_size() + 0.5);
    uint32_t k = PartEnumJaccardScheme::EquisizedHammingThreshold(
        std::max(1u, avg), spec.gamma);
    AdvisorOptions advisor;
    if (trace) advisor.trace = &advisor_trace;
    SSJOIN_ASSIGN_OR_RETURN(choice, ChoosePartEnumParams(input, k,
                                                         input.size(),
                                                         advisor));
    end_span(s);
  }
  const Clock::time_point advised = Clock::now();

  PartEnumJaccardParams params;
  params.gamma = spec.gamma;
  params.max_set_size = input.max_set_size();
  if (choice) {
    params.chooser = [tuned = choice->params](uint32_t threshold) {
      PartEnumParams p = tuned;
      p.k = threshold;
      return p;
    };
  }

  SSJOIN_ASSIGN_OR_RETURN(PartEnumJaccardScheme scheme,
                          PartEnumJaccardScheme::Create(params));
  JaccardPredicate predicate(spec.gamma);
  JoinOptions options;
  options.num_threads = workload->threads;
  std::optional<ExecutionGuard> guard;
  if (workload->spill) {
    ExecutionBudget budget;
    budget.memory_budget_bytes = static_cast<size_t>(
        kSpillBudgetBytesPerSet * static_cast<double>(input.size()));
    guard.emplace(budget);
    options.guard = &*guard;
    options.spill.policy = SpillPolicy::kAuto;
    options.spill.dir = spill_dir;
  }
  if (trace) {
    options.tracer = &*tracer;
    options.metrics = &*metrics;
  }
  s = span("join");
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point join_start = Clock::now();
  JoinResult result = Join(SelfJoinRequest(input, scheme, predicate, options));
  const Clock::time_point join_end = Clock::now();
  const double cpu_s = ProcessCpuSeconds() - cpu_start;
  end_span(s);
  const double peak_rss_mb = PeakRssMb();

  // ---- untimed checks ----
  std::vector<SetPair> pairs = std::move(result.pairs);
  if (drop_pair && !pairs.empty()) {
    pairs.erase(pairs.begin() + static_cast<ptrdiff_t>(pairs.size() / 2));
  }
  uint64_t predicate_failures = 0;
  for (const SetPair& pair : pairs) {
    if (!PairMatches(input, predicate, pair)) ++predicate_failures;
  }
  std::sort(pairs.begin(), pairs.end());
  SSJOIN_ASSIGN_OR_RETURN(std::vector<SetPair> reference,
                          ReadPairs(reference_path));
  const bool matches_reference = pairs == reference;
  if (tracer && !trace_out.empty()) {
    SSJOIN_RETURN_NOT_OK(obs::WriteChromeTrace(*tracer, trace_out));
  }

  const JoinStats& stats = result.stats;
  JsonOut out;
  out.Str("workload", workload->name);
  out.Bool("ok", result.status.ok());
  out.Str("status", result.status.ToString());
  out.Bool("matches_reference", matches_reference);
  out.Int("predicate_failures", predicate_failures);
  out.Int("pairs", pairs.size());
  out.Int("reference_pairs", reference.size());
  out.Int("threads", workload->threads);
  out.Num("job_s", Seconds(job_start, join_end));
  out.Num("setup_s", Seconds(job_start, join_start));
  out.Num("join_s", Seconds(join_start, join_end));
  out.Num("load_s", Seconds(job_start, loaded));
  out.Num("tokenize_s", Seconds(loaded, tokenized));
  out.Num("advisor_s", Seconds(tokenized, advised));
  out.Num("join_cpu_s", cpu_s);
  out.Num("peak_rss_mb", peak_rss_mb);

  // Deterministic work counters: identical on every run of one input.
  JsonOut counters;
  counters.Int("signatures", stats.signatures_r + stats.signatures_s);
  counters.Int("collisions", stats.signature_collisions);
  counters.Int("candidates", stats.candidates);
  counters.Int("results", stats.results);
  counters.Int("bitmap_checked", stats.bitmap_filter_checked);
  counters.Int("bitmap_pruned", stats.bitmap_filter_pruned);
  counters.Int("spill_partitions", stats.spill_partitions);
  counters.Int("spill_retries", stats.spill_retries);
  counters.Int("spill_bytes_written", stats.spill_bytes_written);
  counters.Int("spill_bytes_read", stats.spill_bytes_read);
  if (choice) {
    counters.Int("n1", choice->params.n1);
    counters.Int("n2", choice->params.n2);
  }
  out.Obj("counters", counters);

  JsonOut layers;
  layers.Int("f2", stats.F2());
  layers.Num("advisor_estimated_f2", choice ? choice->estimated_f2 : 0.0);
  layers.Int("advisor_settings_scored", advisor_trace.candidates.size());
  layers.Int("guard_memory_high_water",
             guard ? guard->memory_high_water() : 0);
  if (metrics) {
    for (const obs::MetricRecord& record : metrics->Snapshot()) {
      if (record.kind == obs::MetricKind::kCounter) {
        layers.Int(record.name, record.counter_value);
      } else if (record.kind == obs::MetricKind::kGauge) {
        layers.Num(record.name, record.gauge_value);
      }
    }
  }
  out.Obj("layers", layers);
  std::printf("%s\n", out.str().c_str());
  return Status::OK();
}

}  // namespace
}  // namespace ssjoin::perfbench

int main(int argc, char** argv) {
  using ssjoin::perfbench::Args;
  const std::string_view command = argc > 1 ? argv[1] : "";
  ssjoin::Result<Args> args = Args::Parse(argc, argv);
  ssjoin::Status status = args.status();
  if (status.ok()) {
    if (command == "prepare") {
      status = ssjoin::perfbench::Prepare(*args);
    } else if (command == "job") {
      status = ssjoin::perfbench::RunJob(*args);
    } else {
      status = ssjoin::Status::InvalidArgument(
          "usage: perfbench prepare|job --key value ...");
    }
  }
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
