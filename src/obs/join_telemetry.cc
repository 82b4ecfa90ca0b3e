#include "obs/join_telemetry.h"

#include <algorithm>
#include <chrono>
#include <string>

namespace ssjoin::obs {

JoinTelemetry::JoinTelemetry(Tracer* tracer, MetricsRegistry* metrics,
                             std::string_view root_name)
    : tracer_(tracer), metrics_(metrics) {
  if (tracer_ != nullptr) {
    root_ = tracer_->StartSpan(root_name, kNoSpan, Stability::kStable);
  }
}

JoinTelemetry::~JoinTelemetry() {
  if (tracer_ != nullptr && root_ != kNoSpan) tracer_->EndSpan(root_);
}

JoinTelemetry::SampleScope::~SampleScope() {
  if (latency_ != nullptr) {
    latency_->Record(static_cast<uint64_t>(watch_->ElapsedMicros()));
  }
  if (span_ != kNoSpan) telemetry_->tracer_->EndSpan(span_);
}

JoinTelemetry::SampleScope JoinTelemetry::Sample(std::string_view name,
                                                 Histogram* latency,
                                                 uint32_t lane) {
  SpanId span = kNoSpan;
  if (tracer_ != nullptr) {
    span = tracer_->StartSpan(name, root_, Stability::kRuntime, lane);
  }
  return SampleScope(this, latency, span);
}

void JoinTelemetry::Event(std::string_view name, std::string_view detail) {
  if (tracer_ != nullptr && root_ != kNoSpan) {
    tracer_->AddEvent(root_, name, detail);
  }
}

void JoinTelemetry::Attr(std::string_view key, uint64_t value) {
  if (tracer_ != nullptr && root_ != kNoSpan) {
    tracer_->SetAttr(root_, key, value);
  }
}

void JoinTelemetry::Attr(std::string_view key, double value) {
  if (tracer_ != nullptr && root_ != kNoSpan) {
    tracer_->SetAttr(root_, key, value);
  }
}

void JoinTelemetry::Attr(std::string_view key, std::string_view value) {
  if (tracer_ != nullptr && root_ != kNoSpan) {
    tracer_->SetAttr(root_, key, value);
  }
}

void JoinTelemetry::AddCount(std::string_view name, uint64_t delta,
                             Stability stability) {
  if (metrics_ != nullptr) metrics_->counter(name, stability).Add(delta);
}

void JoinTelemetry::SetGauge(std::string_view name, double value,
                             Stability stability) {
  if (metrics_ != nullptr) metrics_->gauge(name, stability).Set(value);
}

void OpInstrument::Bind(JoinTelemetry* telemetry, std::string_view tag,
                        uint32_t lane) {
  if (telemetry == nullptr) return;
  if (MetricsRegistry* metrics = telemetry->metrics()) {
    auto counter = [&](std::string_view suffix, Stability stability) {
      return &metrics->counter(
          std::string(names::kPipelinePrefix) + std::string(tag) +
              std::string(suffix),
          stability);
    };
    // Row totals are functions of the input and plan — stable. Batch
    // granularity and self-time vary with thread count and the wall
    // clock — runtime (see obs/stability.h).
    batches_ = counter(names::kPipelineSuffixBatches, Stability::kRuntime);
    rows_in_ = counter(names::kPipelineSuffixRowsIn, Stability::kStable);
    rows_out_ = counter(names::kPipelineSuffixRowsOut, Stability::kStable);
    self_ns_ = counter(names::kPipelineSuffixNs, Stability::kRuntime);
  }
  tracer_ = telemetry->tracer();
  if (tracer_ != nullptr) {
    // The operator chain is a function of the plan, not of the thread
    // count, so operator spans are the stable skeleton under the root.
    span_ = tracer_->StartSpan(tag, telemetry->root(), Stability::kStable,
                               lane);
  }
}

int64_t OpInstrument::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void OpInstrument::RecordPull(int64_t start_ns, uint64_t nested_ns,
                              bool produced, uint64_t rows_in,
                              uint64_t rows_out) {
  const uint64_t elapsed =
      static_cast<uint64_t>(std::max<int64_t>(0, NowNs() - start_ns));
  const uint64_t self = elapsed >= nested_ns ? elapsed - nested_ns : 0;
  inclusive_ns_ += elapsed;
  self_ns_total_ += self;
  if (!enabled()) return;
  self_ns_->Add(self);
  if (produced) batches_->Add();
  PublishRows(rows_in, rows_out);
}

void OpInstrument::PublishRows(uint64_t rows_in, uint64_t rows_out) {
  if (rows_in > published_rows_in_) {
    rows_in_->Add(rows_in - published_rows_in_);
    published_rows_in_ = rows_in;
  }
  if (rows_out > published_rows_out_) {
    rows_out_->Add(rows_out - published_rows_out_);
    published_rows_out_ = rows_out;
  }
}

void OpInstrument::FinishCounts(uint64_t rows_in, uint64_t rows_out) {
  if (enabled()) PublishRows(rows_in, rows_out);
  if (span_ != kNoSpan) {
    tracer_->SetAttr(span_, names::kAttrRowsIn, rows_in);
    tracer_->SetAttr(span_, names::kAttrRowsOut, rows_out);
    tracer_->EndSpan(span_);
    span_ = kNoSpan;
  }
}

}  // namespace ssjoin::obs
