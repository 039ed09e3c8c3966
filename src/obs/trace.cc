#include "obs/trace.h"

#include <ostream>

namespace cbt::obs {

const char* TraceKindName(TraceKind kind) {
  switch (kind) {
    case TraceKind::kFsm:
      return "fsm";
    case TraceKind::kPacket:
      return "packet";
    case TraceKind::kChaos:
      return "chaos";
    case TraceKind::kRouting:
      return "routing";
    case TraceKind::kInvariant:
      return "invariant";
    case TraceKind::kTopology:
      return "topology";
    case TraceKind::kIgmp:
      return "igmp";
    case TraceKind::kMarker:
      return "marker";
  }
  return "?";
}

namespace {

const char* PhaseCode(TracePhase phase) {
  switch (phase) {
    case TracePhase::kInstant:
      return "i";
    case TracePhase::kBegin:
      return "B";
    case TracePhase::kEnd:
      return "E";
  }
  return "i";
}

/// Minimal JSON string escaping; event names are static literals under
/// our control, but be safe about quotes/backslashes/control bytes.
void WriteJsonString(std::ostream& os, const char* s) {
  os << '"';
  for (; *s != '\0'; ++s) {
    const unsigned char c = static_cast<unsigned char>(*s);
    if (c == '"' || c == '\\') {
      os << '\\' << *s;
    } else if (c < 0x20) {
      static const char* hex = "0123456789abcdef";
      os << "\\u00" << hex[c >> 4] << hex[c & 0xF];
    } else {
      os << *s;
    }
  }
  os << '"';
}

void WriteArgs(std::ostream& os, const TraceEvent& e, std::uint64_t seq) {
  os << "\"args\":{\"seq\":" << seq;
  if (!e.group.IsUnspecified()) {
    os << ",\"group\":\"" << e.group.ToString() << "\"";
  }
  os << ",\"a\":" << e.arg_a << ",\"b\":" << e.arg_b;
  if (e.txn != 0) {
    os << ",\"txn\":" << e.txn;
  }
  if (e.detail != nullptr) {
    os << ",\"detail\":";
    WriteJsonString(os, e.detail);
  }
  os << "}";
}

/// Ring overflow accounting of one Chrome "otherData" ring entry, minus
/// the surrounding braces.
void WriteRingMeta(std::ostream& os, const TraceBuffer& buffer) {
  os << "\"emitted\":" << buffer.emitted()
     << ",\"retained\":" << buffer.size()
     << ",\"dropped\":" << buffer.dropped()
     << ",\"first_seq\":" << (buffer.emitted() - buffer.size())
     << ",\"capacity\":" << buffer.capacity();
}

}  // namespace

TraceBuffer::TraceBuffer(std::size_t capacity, TraceLevel level)
    : ring_(capacity == 0 ? 1 : capacity), level_(level) {}

void TraceBuffer::Emit(const TraceEvent& event) {
  ring_[head_] = event;
  head_ = (head_ + 1) % ring_.size();
  if (count_ < ring_.size()) {
    ++count_;
  } else {
    ++dropped_;
    ++first_seq_;
  }
  ++next_seq_;
}

void TraceBuffer::Clear() {
  head_ = 0;
  count_ = 0;
  first_seq_ = next_seq_;
  dropped_ = 0;
}

namespace {

/// Shared body of the single- and multi-buffer Chrome exports: emits the
/// comma-prefixed event objects for one buffer lane.
void WriteChromeEvents(std::ostream& os, const TraceBuffer& buffer, int pid,
                       bool& first) {
  buffer.ForEach([&](std::uint64_t seq, const TraceEvent& e) {
    if (!first) os << ",";
    first = false;
    // Sim time is already microseconds — Chrome's "ts" unit.
    os << "\n{\"name\":";
    WriteJsonString(os, e.name);
    os << ",\"cat\":\"" << TraceKindName(e.kind) << "\",\"ph\":\""
       << PhaseCode(e.phase) << "\",\"ts\":" << e.time << ",\"pid\":" << pid
       << ",\"tid\":" << e.node;
    if (e.phase == TracePhase::kInstant) os << ",\"s\":\"t\"";
    os << ",";
    WriteArgs(os, e, seq);
    os << "}";
  });
}

}  // namespace

void TraceBuffer::ExportChromeTrace(std::ostream& os, int pid) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  WriteChromeEvents(os, *this, pid, first);
  os << "\n],\"otherData\":{\"rings\":[{\"pid\":" << pid << ",";
  WriteRingMeta(os, *this);
  os << "}]}}\n";
}

void ExportCombinedChromeTrace(
    std::ostream& os, const std::vector<const TraceBuffer*>& buffers) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    if (buffers[i] == nullptr) continue;
    WriteChromeEvents(os, *buffers[i], static_cast<int>(i) + 1, first);
  }
  os << "\n],\"otherData\":{\"rings\":[";
  bool first_meta = true;
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    if (buffers[i] == nullptr) continue;
    if (!first_meta) os << ",";
    first_meta = false;
    os << "{\"pid\":" << static_cast<int>(i) + 1 << ",";
    WriteRingMeta(os, *buffers[i]);
    os << "}";
  }
  os << "]}}\n";
}

namespace {
TraceBuffer* g_process_trace = nullptr;
thread_local TraceBuffer* t_trace_override = nullptr;
thread_local bool t_trace_override_installed = false;
}  // namespace

TraceBuffer* ProcessTraceBuffer() {
  return t_trace_override_installed ? t_trace_override : g_process_trace;
}
void SetProcessTraceBuffer(TraceBuffer* buffer) { g_process_trace = buffer; }

ScopedThreadTraceBuffer::ScopedThreadTraceBuffer(TraceBuffer* buffer)
    : previous_(t_trace_override),
      previous_installed_(t_trace_override_installed) {
  t_trace_override = buffer;
  t_trace_override_installed = true;
}

ScopedThreadTraceBuffer::~ScopedThreadTraceBuffer() {
  t_trace_override = previous_;
  t_trace_override_installed = previous_installed_;
}

}  // namespace cbt::obs
