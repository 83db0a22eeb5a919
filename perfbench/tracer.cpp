#include "tracer.hpp"

#include <algorithm>
#include <cstdio>
#include <ctime>

#include "util/stats.hpp"

namespace perfbench {

using pgasemb::SimTime;

std::int64_t wallNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

std::int64_t hostNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

namespace {

std::vector<double> speed_ms;
std::int64_t last_speed_sample_ns = -kSpeedSampleIntervalNs;
volatile std::uint64_t speed_sink = 0;  // keeps the probe's work live

}  // namespace

void sampleHostSpeed() {
  if (wallNs() - last_speed_sample_ns < kSpeedSampleIntervalNs) return;
  const std::int64_t t0 = hostNs();
  std::map<std::uint64_t, std::uint64_t> m;
  std::uint64_t x = 88172645463325252ULL;
  for (std::uint64_t i = 0; i < (1u << 16); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    m[x] = i;
  }
  std::uint64_t sum = 0;
  for (const auto& [k, v] : m) sum += k ^ v;
  speed_sink = sum;
  speed_ms.push_back(static_cast<double>(hostNs() - t0) * 1e-6);
  last_speed_sample_ns = wallNs();
}

double speedSampleMs() {
  return speed_ms.empty() ? kReferenceSpeedMs : pgasemb::median(speed_ms);
}

double hostSpeedFactor() { return kReferenceSpeedMs / speedSampleMs(); }

int Tracer::open(const char* name, std::int64_t batch) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.batch = batch;
  span.start_ns = hostNs();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  if (index < 0) return;
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = hostNs();
  // Spans close in LIFO order (RAII on one thread).
  stack_.pop_back();
  if (span.parent >= 0) {
    spans_[static_cast<std::size_t>(span.parent)].child_ns +=
        span.end_ns - span.start_ns;
  }
}

std::map<std::string, SpanTotals> Tracer::totalsByName(
    std::size_t first) const {
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    auto& t = out[span.name];
    const auto duration = static_cast<double>(span.end_ns - span.start_ns);
    ++t.count;
    t.total_ns += duration;
    t.self_ns += duration - static_cast<double>(span.child_ns);
  }
  return out;
}

bool Tracer::writeJson(const std::string& path,
                       const std::string& header) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{%s,\n\"spans\": [\n", header.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"batch\": %lld, "
                 "\"self_ns\": %lld}%s\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.batch),
                 static_cast<long long>(s.end_ns - s.start_ns - s.child_ns),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

KernelLayer classifyKernel(const std::string& name) {
  const auto starts = [&](const char* prefix) {
    return name.rfind(prefix, 0) == 0;
  };
  if (starts("emb_lookup_")) return KernelLayer::kLookup;
  if (starts("emb_unpack")) return KernelLayer::kUnpack;
  if (starts("emb_cache_")) return KernelLayer::kCache;
  if (starts("emb_hier_")) return KernelLayer::kHier;
  if (starts("emb_backward_")) return KernelLayer::kBackward;
  if (starts("top_mlp_bwd") || starts("bottom_mlp_bwd")) {
    return KernelLayer::kMlpBackward;
  }
  if (starts("top_mlp")) return KernelLayer::kTopMlp;
  if (starts("interaction")) return KernelLayer::kInteraction;
  if (starts("bottom_mlp")) return KernelLayer::kBottomMlp;
  return KernelLayer::kOther;
}

void KernelLog::attach(pgasemb::gpu::MultiGpuSystem& system) {
  system_ = &system;
  gpus_ = system.numGpus();
  busy_.assign(static_cast<std::size_t>(gpus_), {});
  system.setKernelObserver([this](int device, const std::string& name,
                                  SimTime start, SimTime end,
                                  SimTime completion) {
    record(device, name, start, end, completion);
  });
}

void KernelLog::detach() {
  if (system_ != nullptr) system_->setKernelObserver(nullptr);
  system_ = nullptr;
}

void KernelLog::record(int device, const std::string& name, SimTime start,
                       SimTime end, SimTime completion) {
  ++kernels_;
  const KernelLayer layer = classifyKernel(name);
  busy_ms_[static_cast<std::size_t>(layer)] += (end - start).toMs();
  if (name.rfind("emb_lookup_pgas_fused", 0) == 0) {
    pgas_tail_ms_ += (completion - end).toMs();
    ++pgas_kernels_;
  }
  if (device >= 0 && device < gpus_) {
    busy_[static_cast<std::size_t>(device)].emplace_back(start.count(),
                                                         end.count());
  }
}

void KernelLog::beginBatch(SimTime at) {
  window_start_ = at;
  for (auto& intervals : busy_) intervals.clear();
}

void KernelLog::endBatch(SimTime at) {
  const std::int64_t lo = window_start_.count();
  const std::int64_t hi = at.count();
  if (hi <= lo || gpus_ == 0) return;
  double idle_ps = 0.0;
  for (auto& intervals : busy_) {
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t cursor = lo;
    for (const auto& [s, e] : intervals) {
      const std::int64_t a = std::max(s, cursor);
      const std::int64_t b = std::min(e, hi);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    idle_ps += static_cast<double>((hi - lo) - covered);
  }
  idle_ms_ += idle_ps / static_cast<double>(gpus_) * 1e-9;
}

}  // namespace perfbench
