#include "hbosim/des/trace.hpp"

#include <algorithm>

#include "hbosim/common/error.hpp"

namespace hbosim::des {

namespace {
/// RFC-4180-style quoting: series names are free-form, so any field
/// containing a comma, quote, or newline is emitted quoted
/// with inner quotes doubled.
void put_csv_field(std::ostream& os, const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) {
    os << s;
    return;
  }
  os << '"';
  for (char c : s) {
    if (c == '"') os << '"';
    os << c;
  }
  os << '"';
}
}  // namespace

std::size_t TraceRecorder::series_id(const std::string& series) {
  auto it = index_.find(series);
  if (it != index_.end()) return it->second;
  const std::size_t id = series_.size();
  series_.push_back(Series{series, {}});
  index_.emplace(series, id);
  return id;
}

void TraceRecorder::record(const std::string& series, SimTime t, double value) {
  series_[series_id(series)].points.push_back(TracePoint{t, value});
}

void TraceRecorder::mark(SimTime t, const std::string& label) {
  markers_.emplace_back(t, label);
}

const TraceRecorder::Series* TraceRecorder::find(
    const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? nullptr : &series_[it->second];
}

bool TraceRecorder::has_series(const std::string& series) const {
  return find(series) != nullptr;
}

const TraceSeries& TraceRecorder::series(const std::string& name) const {
  const Series* s = find(name);
  HB_REQUIRE(s != nullptr, "unknown trace series: " + name);
  return s->points;
}

std::vector<std::string> TraceRecorder::series_names() const {
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const Series& s : series_) out.push_back(s.name);
  std::sort(out.begin(), out.end());
  return out;
}

double TraceRecorder::window_mean(const std::string& name, SimTime t0,
                                  SimTime t1) const {
  const auto& pts = series(name);
  double acc = 0.0;
  std::size_t n = 0;
  for (const auto& p : pts) {
    if (p.time >= t0 && p.time <= t1) {
      acc += p.value;
      ++n;
    }
  }
  return n ? acc / static_cast<double>(n) : 0.0;
}

void TraceRecorder::dump_series_csv(const std::string& name,
                                    std::ostream& os) const {
  os << "time,";
  put_csv_field(os, name);
  os << '\n';
  for (const auto& p : series(name)) os << p.time << ',' << p.value << '\n';
}

void TraceRecorder::clear() {
  series_.clear();
  index_.clear();
  markers_.clear();
}

}  // namespace hbosim::des
