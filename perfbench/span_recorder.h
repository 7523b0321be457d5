#pragma once

/// @file span_recorder.h
/// The benchmark's span recorder: named, nested intervals kept in memory
/// and written once, at exit, as Chrome trace-event JSON (opens in
/// https://ui.perfetto.dev or chrome://tracing).
///
/// Spans are recorded by the benchmark around its own calls into the
/// library, on one thread; the parent of a span is the span open when it
/// started.  Each span carries the pass or request id it belongs to
/// (inherited from its parent unless set) and free-form args: labels
/// (strings) and counts (integers) recorded where the work happened.
/// A disabled recorder records nothing, so one code path serves the
/// traced and the untraced run.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.h"

namespace perfbench {

/// Nanoseconds on the steady clock.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
 public:
  /// One open span; closes (records its end) when destroyed.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, int index)
        : recorder_(recorder), index_(index) {}
    ~Scope() {
      if (index_ >= 0) {
        recorder_.close(index_);
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void label(const std::string& key, const std::string& value) {
      if (index_ < 0) {
        return;
      }
      recorder_.add_arg(index_, vwsdk::json_quote(key) + ":" +
                                    vwsdk::json_quote(value));
    }
    void count(const std::string& key, long long value) {
      if (index_ < 0) {
        return;
      }
      recorder_.add_arg(index_,
                        vwsdk::json_quote(key) + ":" + std::to_string(value));
    }

   private:
    SpanRecorder& recorder_;
    int index_;
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled), origin_(now_ns()) {}

  /// Open a span named `name` as a child of the innermost open span.
  /// `group` is the pass / request id; < 0 inherits the parent's.
  [[nodiscard]] Scope span(const std::string& name, long long group = -1) {
    if (!enabled_) {
      return Scope(*this, -1);
    }
    Span span;
    span.name = name;
    span.parent = open_;
    span.group = group >= 0 || open_ < 0 ? group : spans_[open_].group;
    span.start = now_ns();
    spans_.push_back(std::move(span));
    open_ = static_cast<int>(spans_.size()) - 1;
    return Scope(*this, open_);
  }

  /// Write every recorded span as Chrome trace-event JSON ("X" complete
  /// events, timestamps in microseconds from the recorder's creation).
  void write_chrome_trace(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      throw std::runtime_error("cannot write trace file " + path);
    }
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      const std::string name = vwsdk::json_quote(span.name);
      out << (i == 0 ? "" : ",\n") << "{\"name\":" << name
          << ",\"cat\":" << vwsdk::json_quote(module_of(span.name))
          << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << micros(span.start - origin_)
          << ",\"dur\":" << micros(span.end - span.start)
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent
          << ",\"group\":" << span.group << span.args << "}}";
    }
    out << "\n]}\n";
    if (!out.flush()) {
      throw std::runtime_error("failed writing trace file " + path);
    }
  }

 private:
  struct Span {
    std::string name;
    std::int64_t start = 0;
    std::int64_t end = 0;
    int parent = -1;
    long long group = -1;
    std::string args;  ///< ",\"key\":value" fragments
  };

  void close(int index) {
    spans_[index].end = now_ns();
    open_ = spans_[index].parent;
  }
  void add_arg(int index, const std::string& fragment) {
    spans_[index].args += "," + fragment;
  }

  /// The module a span name starts with ("sim.execute" -> "sim").
  static std::string module_of(const std::string& name) {
    return name.substr(0, name.find('.'));
  }
  /// Nanoseconds as microseconds with three decimals, exactly.
  static std::string micros(std::int64_t ns) {
    std::string frac = std::to_string(ns % 1000);
    return std::to_string(ns / 1000) + "." +
           std::string(3 - frac.size(), '0') + frac;
  }

  bool enabled_;
  std::int64_t origin_;
  std::vector<Span> spans_;
  int open_ = -1;
};

}  // namespace perfbench
