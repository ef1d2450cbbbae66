#include "spans.h"

#include <cstdio>
#include <functional>

namespace perfbench {

SpanLog::Scope::Scope(SpanLog* log, std::string name, const char* category)
    : log_(log->enabled_ ? log : nullptr) {
  if (log_ == nullptr) return;
  const Clock::time_point entered = Clock::now();
  index_ = log_->spans_.size();
  const std::uint64_t parent =
      log_->open_.empty() ? 0 : log_->spans_[log_->open_.back()].id;
  log_->spans_.push_back(
      {std::move(name), category, index_ + 1, parent, {}, {}});
  log_->open_.push_back(index_);
  const Clock::time_point begin = Clock::now();
  log_->spans_[index_].begin = begin;
  log_->overhead_s_ += std::chrono::duration<double>(begin - entered).count();
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  const Clock::time_point end = Clock::now();
  log_->spans_[index_].end = end;
  log_->open_.pop_back();
  log_->overhead_s_ +=
      std::chrono::duration<double>(Clock::now() - end).count();
}

bool SpanLog::WriteChromeTrace(const std::string& path,
                               const std::string& other_data_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // Spans are strictly nested (one thread, RAII), so a depth-first walk in
  // creation order emits balanced B/E pairs.
  std::vector<std::vector<std::size_t>> children(spans_.size() + 1);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    children[spans_[i].parent].push_back(i);
  }
  auto micros = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  bool first = true;
  std::fprintf(f, "{\"traceEvents\": [\n");
  std::function<void(std::size_t)> walk = [&](std::size_t i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"B\", "
                 "\"ts\": %.3f, \"pid\": 0, \"tid\": 0, "
                 "\"args\": {\"span\": %llu, \"parent\": %llu}}",
                 first ? "" : ",\n", s.name.c_str(), s.category,
                 micros(s.begin), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
    first = false;
    for (std::size_t child : children[s.id]) walk(child);
    std::fprintf(f,
                 ",\n  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"E\", "
                 "\"ts\": %.3f, \"pid\": 0, \"tid\": 0}",
                 s.name.c_str(), s.category, micros(s.end));
  };
  for (std::size_t root : children[0]) walk(root);
  std::fprintf(f, "\n], \"displayTimeUnit\": \"ms\", \"otherData\": %s}\n",
               other_data_json.c_str());
  return std::fclose(f) == 0;
}

}  // namespace perfbench
