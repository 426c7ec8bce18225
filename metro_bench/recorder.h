// Span recorder for metro_bench's traced pass.
//
// Every thread that records gets its own buffer (registered once under a
// lock, then appended to without one), so recording from engine workers
// never contends. Buffers are read only after the recording threads have
// quiesced — the engine and its pools have been joined — and are merged
// into per-kind duration samples and, when spans are kept, a Chrome
// trace-event file that opens in Perfetto or chrome://tracing.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace metro_bench {

using Clock = std::chrono::steady_clock;

/// What a recorded interval measured. The comment names the src/ layer a
/// kind belongs to; that name is the span's category in the trace file.
enum class Kind : std::uint8_t {
  kDesRun,     // replay: one run_experiment
  kEngineRun,  // runtime: one Engine::run
  kPop,        // core: pop_ready_clusters / pop_ready_clusters_in_shard
  kCommit,     // core: local_commit_shard + commit
  kApply,      // world: resolve_conflict_and_commit
  kStepFn,     // runtime: the engine's StepFn for one cluster
  kPoolWait,   // runtime: chain task submitted -> started (no span: the
               // wait starts on another thread than the one that ends it)
  kChain,      // runtime: one member's LLM chain run as a pool task
  kLlmCall,    // llm: one LlmClient::complete
};
inline constexpr std::size_t kKinds = 9;

inline const char* kind_name(Kind k) {
  static constexpr std::array<const char*, kKinds> kNames = {
      "des_run", "engine_run", "pop",       "commit",   "apply",
      "step_fn", "pool_wait",  "chain",     "llm_call"};
  return kNames[static_cast<std::size_t>(k)];
}

inline const char* kind_layer(Kind k) {
  static constexpr std::array<const char*, kKinds> kLayers = {
      "replay",  "runtime", "core",    "core", "world",
      "runtime", "runtime", "runtime", "llm"};
  return kLayers[static_cast<std::size_t>(k)];
}

class Recorder {
 public:
  /// keep_spans = false keeps only the per-kind duration samples.
  explicit Recorder(bool keep_spans)
      : keep_spans_(keep_spans), id_(next_id()), epoch_(Clock::now()) {}

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Thread-safe. `label` must be a string literal (or otherwise outlive
  /// the recorder); null names the span after its kind. `arg` is the
  /// simulation step for per-cluster kinds.
  void record(Kind kind, Clock::time_point begin, Clock::time_point end,
              std::int64_t arg = 0, const char* label = nullptr) {
    ThreadBuffer& buf = local();
    buf.us[static_cast<std::size_t>(kind)].push_back(
        std::chrono::duration<double, std::micro>(end - begin).count());
    if (keep_spans_ && kind != Kind::kPoolWait) {
      buf.spans.push_back(Span{kind, label, ns_since_epoch(begin),
                               ns_since_epoch(end), arg});
    }
  }

  /// Every duration of `kind` in microseconds, across threads. Call only
  /// once no thread is recording.
  std::vector<double> samples_us(Kind kind) const {
    aimetro::common::MutexLock lock(mutex_);
    std::vector<double> out;
    for (const auto& buf : buffers_) {
      const auto& v = buf->us[static_cast<std::size_t>(kind)];
      out.insert(out.end(), v.begin(), v.end());
    }
    return out;
  }

  /// Summed durations of `kind` in seconds (over all threads).
  double busy_s(Kind kind) const {
    double total = 0.0;
    for (double us : samples_us(kind)) total += us;
    return total / 1e6;
  }

  /// Write the kept spans as Chrome trace-event JSON (one complete "X"
  /// event per span, one track per recording thread). Returns false when
  /// the file cannot be written.
  bool write_chrome_trace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    aimetro::common::MutexLock lock(mutex_);
    std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
    bool first = true;
    for (const auto& buf : buffers_) {
      std::fprintf(f,
                   "%s{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, "
                   "\"tid\": %d, \"args\": {\"name\": \"%s %d\"}}",
                   first ? "" : ",\n", buf->tid,
                   buf->tid == 1 ? "bench" : "thread", buf->tid);
      first = false;
      for (const Span& s : buf->spans) {
        std::fprintf(
            f,
            ",\n{\"ph\": \"X\", \"name\": \"%s\", \"cat\": \"%s\", "
            "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
            "\"args\": {\"step\": %lld}}",
            s.label != nullptr ? s.label : kind_name(s.kind),
            kind_layer(s.kind), buf->tid,
            static_cast<double>(s.begin_ns) / 1e3,
            static_cast<double>(s.end_ns - s.begin_ns) / 1e3,
            static_cast<long long>(s.arg));
      }
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    Kind kind;
    const char* label;
    std::int64_t begin_ns;
    std::int64_t end_ns;
    std::int64_t arg;
  };
  struct ThreadBuffer {
    int tid = 0;
    std::array<std::vector<double>, kKinds> us;
    std::vector<Span> spans;
  };

  static std::uint64_t next_id() {
    static std::atomic<std::uint64_t> counter{0};
    return ++counter;
  }

  std::int64_t ns_since_epoch(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  /// This thread's buffer in this recorder, registered on first use. The
  /// thread-local cache remembers one recorder; a thread that records into
  /// a second one simply registers a fresh buffer there.
  ThreadBuffer& local() {
    thread_local std::uint64_t owner = 0;
    thread_local ThreadBuffer* cached = nullptr;
    if (owner != id_) {
      aimetro::common::MutexLock lock(mutex_);
      buffers_.push_back(std::make_unique<ThreadBuffer>());
      buffers_.back()->tid = static_cast<int>(buffers_.size());
      cached = buffers_.back().get();
      owner = id_;
    }
    return *cached;
  }

  const bool keep_spans_;
  const std::uint64_t id_;
  const Clock::time_point epoch_;
  mutable aimetro::common::Mutex mutex_{"metro_bench.recorder"};
  /// Owned buffers; each is appended to only by its own thread.
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_ GUARDED_BY(mutex_);
};

/// Quantile `q` in [0, 1] of `v` by linear interpolation between closest
/// ranks; 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace metro_bench
