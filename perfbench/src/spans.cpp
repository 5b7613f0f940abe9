#include <fstream>

#include "bench.hpp"
#include "util/bench_io.hpp"

namespace perfbench {

SpanLog::SpanLog() : epoch_(Clock::now()) {}

int SpanLog::open(std::string name, std::uint64_t id, int parent) {
  const double t = now();
  return add(std::move(name), id, parent, t, t);
}

void SpanLog::close(int span) { spans_[span].end_s = now(); }

int SpanLog::add(std::string name, std::uint64_t id, int parent, double start_s,
                 double end_s) {
  spans_.push_back({std::move(name), id, parent, start_s, end_s});
  return static_cast<int>(spans_.size()) - 1;
}

bool SpanLog::write_json(const std::string& path) const {
  sjc::JsonWriter json;
  json.begin_object().begin_array("spans");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    json.begin_element()
        .field("span", static_cast<std::uint64_t>(i))
        .field("parent", static_cast<double>(s.parent))
        .field("id", s.id)
        .field("name", s.name)
        .field("start_s", s.start_s)
        .field("end_s", s.end_s)
        .end_object();
  }
  json.end_array().end_object();
  std::ofstream out(path);
  out << json.str() << "\n";
  return static_cast<bool>(out.flush());
}

}  // namespace perfbench
