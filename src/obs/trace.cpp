#include "obs/trace.h"

#include <utility>

#include "util/json.h"

namespace fbist::obs {

namespace {

/// This thread's buffer per tracer.  A plain vector scan: in practice
/// one tracer (the global) exists, so the scan is one compare.  The
/// shared_ptr keeps buffers alive past thread exit (scheduler workers
/// die on set_workers; their spans must survive into the export).
struct LocalBuffers {
  std::vector<std::pair<const Tracer*, std::shared_ptr<Tracer::ThreadBuffer>>>
      entries;
};
thread_local LocalBuffers tls_buffers;

}  // namespace

// Never destroyed: scheduler workers may still record spans while
// Scheduler::global() joins them during static destruction, so the
// tracer must outlive every other static (as the failpoint registry
// does).
Tracer& Tracer::global() {
  static Tracer& instance = *new Tracer;
  return instance;
}

Tracer::ThreadBuffer& Tracer::local_buffer() {
  for (auto& [owner, buf] : tls_buffers.entries) {
    if (owner == this) return *buf;
  }
  auto buf = std::make_shared<ThreadBuffer>();
  {
    std::lock_guard<std::mutex> lock(mu_);
    buf->tid = static_cast<std::uint32_t>(buffers_.size());
    buffers_.push_back(buf);
  }
  tls_buffers.entries.emplace_back(this, buf);
  return *buf;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& buf : buffers_) {
    std::lock_guard<std::mutex> block(buf->mu);
    buf->events.clear();
  }
}

void Tracer::instant(const char* name) {
  if (!enabled()) return;
  ThreadBuffer& buf = local_buffer();
  TraceEvent e;
  e.name = name;
  e.ts_ns = Clock::now_ns();
  e.phase = 'i';
  std::lock_guard<std::mutex> lock(buf.mu);
  buf.events.push_back(std::move(e));
}

void Tracer::instant(const char* name, std::string detail) {
  if (!enabled()) return;
  ThreadBuffer& buf = local_buffer();
  TraceEvent e;
  e.name = name;
  e.detail = std::move(detail);
  e.ts_ns = Clock::now_ns();
  e.phase = 'i';
  std::lock_guard<std::mutex> lock(buf.mu);
  buf.events.push_back(std::move(e));
}

void Tracer::set_thread_name(const std::string& name) {
  ThreadBuffer& buf = local_buffer();
  std::lock_guard<std::mutex> lock(buf.mu);
  buf.thread_name = name;
}

std::size_t Tracer::num_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> block(buf->mu);
    n += buf->events.size();
  }
  return n;
}

std::string Tracer::to_chrome_json() const {
  util::JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> block(buf->mu);
    if (!buf->thread_name.empty()) {
      w.begin_object();
      w.key("name");
      w.value("thread_name");
      w.key("ph");
      w.value("M");
      w.key("pid");
      w.value(1);
      w.key("tid");
      w.value(static_cast<std::uint64_t>(buf->tid));
      w.key("args");
      w.begin_object();
      w.key("name");
      w.value(buf->thread_name);
      w.end_object();
      w.end_object();
    }
    for (const TraceEvent& e : buf->events) {
      w.begin_object();
      w.key("name");
      w.value(e.name);
      w.key("ph");
      w.value(std::string(1, e.phase));
      w.key("ts");
      w.value_fixed(Clock::to_us(e.ts_ns), 3);
      if (e.phase == 'X') {
        w.key("dur");
        w.value_fixed(Clock::to_us(e.dur_ns), 3);
      }
      w.key("pid");
      w.value(1);
      w.key("tid");
      w.value(static_cast<std::uint64_t>(buf->tid));
      if (e.phase == 'i') {
        w.key("s");  // instant scope: this thread
        w.value("t");
      }
      if (!e.detail.empty()) {
        w.key("args");
        w.begin_object();
        w.key("detail");
        w.value(e.detail);
        w.end_object();
      }
      w.end_object();
    }
  }
  w.end_array();
  w.key("displayTimeUnit");
  w.value("ms");
  w.end_object();
  return w.str() + "\n";
}

Span::~Span() {
  if (name_ == nullptr) return;
  const std::uint64_t end = Clock::now_ns();
  Tracer::ThreadBuffer& buf = Tracer::global().local_buffer();
  TraceEvent e;
  e.name = name_;
  e.detail = std::move(detail_);
  e.ts_ns = start_;
  e.dur_ns = end - start_;
  e.phase = 'X';
  std::lock_guard<std::mutex> lock(buf.mu);
  buf.events.push_back(std::move(e));
}

}  // namespace fbist::obs
