#include "obs/export.h"

#include <cstdio>

namespace wimpy::obs {

namespace {

// Fixed-width-independent, locale-independent double rendering; the
// byte-identical-across-threads guarantee rests on this being a pure
// function of the value.
std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

// Escapes the JSON string subset our static names can contain.
std::string JsonEscape(const char* s) {
  std::string out;
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out += '\\';
    out += *s;
  }
  return out;
}

Status WriteString(const std::string& doc, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Unavailable("cannot open for writing: " + path);
  }
  const std::size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
  if (written != doc.size()) {
    return Status::Unavailable("short write to: " + path);
  }
  return Status::Ok();
}

}  // namespace

namespace {

// Shared prefix of every rendered event: name/cat/ph + optional instant
// scope, then ts/pid/tid.
std::string EventHead(const char* name, Category category, char phase,
                      SimTime time, std::size_t pid, std::int32_t tid) {
  std::string out = "{\"name\":\"" + JsonEscape(name) + "\",\"cat\":\"";
  out += CategoryName(category);
  out += "\",\"ph\":\"";
  out += phase;
  out += '"';
  if (phase == 'i') out += ",\"s\":\"t\"";
  out += ",\"ts\":" + Num(time * 1e6);
  out += ",\"pid\":" + std::to_string(pid);
  out += ",\"tid\":" + std::to_string(tid);
  return out;
}

// Causal identity args, rendered only when present so non-causal events
// (the engine hook stream) keep their compact form.
std::string CausalArgs(const TraceEvent& e) {
  std::string out;
  if (e.trace_id != 0) out += ",\"trace\":" + std::to_string(e.trace_id);
  if (e.span_id != 0) out += ",\"span\":" + std::to_string(e.span_id);
  if (e.parent_id != 0) out += ",\"parent\":" + std::to_string(e.parent_id);
  return out;
}

// Stable cross-process-unique flow id: pid + child span id.
std::string FlowId(std::size_t pid, std::uint64_t span_id) {
  return "\"p" + std::to_string(pid) + ".s" + std::to_string(span_id) + "\"";
}

}  // namespace

std::string RenderChromeTrace(const std::vector<TraceLog>& logs) {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  const auto emit = [&out, &first](const std::string& obj) {
    if (!first) out += ",\n";
    first = false;
    out += obj;
  };
  for (std::size_t pid = 0; pid < logs.size(); ++pid) {
    const TraceLog& log = logs[pid];
    SimTime horizon = 0;
    for (const TraceEvent& e : log.events) {
      if (e.time > horizon) horizon = e.time;
    }
    // Track of each causally-open span, for flow-arrow endpoints; LIFO
    // stacks of open B events per tid, for closed-at-horizon synthesis.
    std::map<std::uint64_t, std::int32_t> open_track;
    std::map<std::int32_t, std::vector<const TraceEvent*>> open_stack;
    for (const TraceEvent& e : log.events) {
      if (e.phase == 'B' && e.span_id != 0 && e.parent_id != 0) {
        const auto parent = open_track.find(e.parent_id);
        if (parent != open_track.end() && parent->second != e.track) {
          // Cross-track causal edge: Perfetto flow arrow from the
          // parent's track to the child's, both at the child's begin
          // time (the log is time-ordered, so per-tid ts stays
          // non-decreasing). `bp:"e"` binds the arrival to the
          // enclosing slice.
          const std::string id = FlowId(pid, e.span_id);
          emit(EventHead(e.name, e.category, 's', e.time, pid,
                         parent->second) +
               ",\"id\":" + id + ",\"args\":{}}");
          emit(EventHead(e.name, e.category, 'f', e.time, pid, e.track) +
               ",\"bp\":\"e\",\"id\":" + id + ",\"args\":{}}");
        }
      }
      emit(EventHead(e.name, e.category, e.phase, e.time, pid, e.track) +
           ",\"args\":{\"seq\":" + std::to_string(e.seq) +
           ",\"arg\":" + std::to_string(e.arg) + CausalArgs(e) + "}}");
      if (e.phase == 'B') {
        if (e.span_id != 0) open_track[e.span_id] = e.track;
        open_stack[e.track].push_back(&e);
      } else if (e.phase == 'E') {
        if (e.span_id != 0) open_track.erase(e.span_id);
        auto& stack = open_stack[e.track];
        if (!stack.empty()) stack.pop_back();
      }
    }
    // Spans still open when the run's horizon cut them: close them at
    // the log's last timestamp (innermost first, so B/E stay properly
    // nested per tid) and flag them for tools/consumers.
    for (auto& [tid, stack] : open_stack) {
      for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
        const TraceEvent& b = **it;
        emit(EventHead(b.name, b.category, 'E', horizon, pid, tid) +
             ",\"args\":{\"seq\":" + std::to_string(b.seq) +
             ",\"arg\":" + std::to_string(b.arg) + CausalArgs(b) +
             ",\"closed_at_horizon\":1}}");
      }
    }
  }
  out += "\n]}\n";
  return out;
}

Status WriteChromeTrace(const std::vector<TraceLog>& logs,
                        const std::string& path) {
  return WriteString(RenderChromeTrace(logs), path);
}

std::string RenderMetricsCsv(const std::vector<MetricsSeries>& series) {
  std::string out = "series,time_s,metric,value\n";
  for (std::size_t idx = 0; idx < series.size(); ++idx) {
    const MetricsSeries& s = series[idx];
    for (std::size_t row = 0; row < s.row_count(); ++row) {
      const std::string prefix =
          std::to_string(idx) + "," + Num(s.times[row]) + ",";
      const std::span<const double> values = s.row(row);
      for (std::size_t col = 0; col < values.size(); ++col) {
        out += prefix;
        out += s.names[col];
        out += ',';
        out += Num(values[col]);
        out += '\n';
      }
    }
  }
  return out;
}

Status WriteMetricsCsv(const std::vector<MetricsSeries>& series,
                       const std::string& path) {
  return WriteString(RenderMetricsCsv(series), path);
}

std::string RenderTelemetryCsv(const std::vector<TelemetrySeries>& series) {
  std::string out = "series,time_s,metric,value\n";
  for (std::size_t idx = 0; idx < series.size(); ++idx) {
    for (const TelemetryRow& row : series[idx].rows) {
      out += std::to_string(idx);
      out += ',';
      out += Num(row.time);
      out += ',';
      out += row.metric;
      out += ',';
      out += Num(row.value);
      out += '\n';
    }
  }
  return out;
}

Status WriteTelemetryCsv(const std::vector<TelemetrySeries>& series,
                         const std::string& path) {
  return WriteString(RenderTelemetryCsv(series), path);
}

std::string RenderAlertsCsv(const std::vector<AlertLog>& logs) {
  std::string out = "series,time_s,rule,metric,value,threshold,window_s\n";
  for (std::size_t idx = 0; idx < logs.size(); ++idx) {
    for (const Alert& alert : logs[idx].alerts) {
      out += std::to_string(idx);
      out += ',';
      out += Num(alert.time);
      out += ',';
      out += alert.rule;
      out += ',';
      out += alert.metric;
      out += ',';
      out += Num(alert.value);
      out += ',';
      out += Num(alert.threshold);
      out += ',';
      out += Num(alert.window);
      out += '\n';
    }
  }
  return out;
}

Status WriteAlertsCsv(const std::vector<AlertLog>& logs,
                      const std::string& path) {
  return WriteString(RenderAlertsCsv(logs), path);
}

}  // namespace wimpy::obs
