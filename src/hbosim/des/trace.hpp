#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "hbosim/common/arena.hpp"
#include "hbosim/common/types.hpp"

/// \file trace.hpp
/// Named time-series recorder. Benches use it to collect figure data
/// (e.g., per-task latency over time for Fig. 2) and dump it as CSV.

namespace hbosim::des {

struct TracePoint {
  SimTime time;
  double value;
};

/// One recorded series. Point storage grows per sample, so it routes
/// through the session arena when a fleet worker's ArenaScope is active
/// (plain heap otherwise — see common/arena.hpp).
using TraceSeries = std::vector<TracePoint, ArenaAllocator<TracePoint>>;

class TraceRecorder {
 public:
  /// Append a sample to the named series (hashes the name every call).
  void record(const std::string& series, SimTime t, double value);

  /// Append a point-event marker (e.g., "allocation change C5").
  void mark(SimTime t, const std::string& label);

  bool has_series(const std::string& series) const;
  const TraceSeries& series(const std::string& name) const;
  /// All series names, sorted.
  std::vector<std::string> series_names() const;
  const std::vector<std::pair<SimTime, std::string>>& markers() const {
    return markers_;
  }

  /// Average value of a series over [t0, t1] (samples within the window).
  double window_mean(const std::string& series, SimTime t0, SimTime t1) const;

  /// Emit `time,value` CSV for one series.
  void dump_series_csv(const std::string& series, std::ostream& os) const;

  void clear();

 private:
  struct Series {
    std::string name;
    TraceSeries points;
  };

  /// Index of the named series, created empty on first use.
  std::size_t series_id(const std::string& series);
  const Series* find(const std::string& name) const;

  std::vector<Series> series_;
  std::unordered_map<std::string, std::size_t> index_;
  std::vector<std::pair<SimTime, std::string>> markers_;
};

}  // namespace hbosim::des
