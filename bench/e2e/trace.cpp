#include "trace.hpp"

#include <cstdio>
#include <map>
#include <stdexcept>

namespace bench {

Tracer* g_tracer = nullptr;

std::int32_t Tracer::begin(const char* name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = now_ns();
  spans_.push_back(s);
  const auto id = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::end(std::int32_t id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("trace spans closed out of nesting order");
  }
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  open_.pop_back();
}

void Tracer::clear() {
  if (!open_.empty()) throw std::logic_error("clearing a tracer with open spans");
  spans_.clear();
}

std::vector<Tracer::SelfTime> Tracer::self_times() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::vector<SelfTime> table;
  std::map<std::string, std::size_t> row_of;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const auto [it, fresh] = row_of.try_emplace(s.name, table.size());
    if (fresh) table.push_back(SelfTime{s.name, 0, 0.0, 0.0});
    SelfTime& row = table[it->second];
    const auto dur = static_cast<double>(s.end_ns - s.start_ns);
    ++row.count;
    row.total_ns += dur;
    row.self_ns += dur - child_ns[i];
  }
  return table;
}

bool Tracer::write_chrome_json(const std::string& path,
                               std::size_t max_events) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\",\n\"traceEvents\": [\n");
  const std::size_t n = spans_.size() < max_events ? spans_.size() : max_events;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    // Complete ("X") events in microseconds; the parent index is kept in
    // args so the causal tree survives tools that re-sort events.
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d}}%s\n",
                 s.name, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 s.parent, i + 1 < n ? "," : "");
  }
  std::fprintf(f, "],\n\"spansRecorded\": %zu,\n\"spansWritten\": %zu,\n",
               spans_.size(), n);
  std::fprintf(f, "\"selfTime\": [\n");
  const std::vector<SelfTime> table = self_times();
  for (std::size_t i = 0; i < table.size(); ++i) {
    const SelfTime& row = table[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"count\": %llu, \"total_ns\": %.0f, "
                 "\"self_ns\": %.0f}%s\n",
                 row.name.c_str(), static_cast<unsigned long long>(row.count),
                 row.total_ns, row.self_ns, i + 1 < table.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace bench
