#include "obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <ostream>
#include <stdexcept>

namespace ftc::obs {

std::int64_t HistogramSnapshot::total() const noexcept {
  std::int64_t t = 0;
  for (std::int64_t c : counts) t += c;
  return t;
}

std::vector<double> pow2_bounds(int lo_exp, int hi_exp) {
  assert(lo_exp <= hi_exp);
  std::vector<double> bounds;
  bounds.reserve(static_cast<std::size_t>(hi_exp - lo_exp + 1));
  for (int e = lo_exp; e <= hi_exp; ++e) {
    bounds.push_back(std::ldexp(1.0, e));
  }
  return bounds;
}

std::size_t Registry::bucket_of(const std::vector<double>& bounds,
                                double value) noexcept {
  // First bound strictly greater than value ⇒ half-open [lo, hi) buckets:
  // a value exactly on an edge lands in the upper bucket.
  return static_cast<std::size_t>(
      std::upper_bound(bounds.begin(), bounds.end(), value) - bounds.begin());
}

MetricId Registry::define(std::string name, MetricKind kind) {
  const MetricId existing = find(name);
  if (existing != kInvalidMetric) {
    if (defs_[existing].kind != kind) {
      throw std::invalid_argument("Registry: metric '" + name +
                                  "' re-registered with a different kind");
    }
    return existing;
  }
  Def d;
  d.name = std::move(name);
  d.kind = kind;
  if (kind == MetricKind::kHistogram) {
    d.slot = hists_.size();
  } else {
    d.slot = scalars_.size();
    scalars_.push_back(0);
  }
  defs_.push_back(std::move(d));
  return static_cast<MetricId>(defs_.size() - 1);
}

MetricId Registry::counter(std::string name) {
  return define(std::move(name), MetricKind::kCounter);
}

MetricId Registry::gauge(std::string name) {
  return define(std::move(name), MetricKind::kGauge);
}

MetricId Registry::histogram(std::string name, std::vector<double> bounds) {
  assert(std::is_sorted(bounds.begin(), bounds.end()));
  assert(!bounds.empty());
  const MetricId id = define(std::move(name), MetricKind::kHistogram);
  if (defs_[id].slot == hists_.size()) {  // newly defined, not re-found
    Hist h;
    h.counts.assign(bounds.size() + 1, 0);
    h.bounds = std::move(bounds);
    hists_.push_back(std::move(h));
  }
  return id;
}

MetricId Registry::find(std::string_view name) const noexcept {
  for (std::size_t i = 0; i < defs_.size(); ++i) {
    if (defs_[i].name == name) return static_cast<MetricId>(i);
  }
  return kInvalidMetric;
}

const Registry::Def& Registry::def(MetricId id) const {
  assert(id < defs_.size());
  return defs_[static_cast<std::size_t>(id)];
}

const std::string& Registry::name(MetricId id) const { return def(id).name; }

MetricKind Registry::kind(MetricId id) const { return def(id).kind; }

void Registry::add(MetricId id, std::int64_t delta) {
  assert(def(id).kind == MetricKind::kCounter);
  scalars_[def(id).slot] += delta;
}

void Registry::set(MetricId id, std::int64_t value) {
  assert(def(id).kind == MetricKind::kGauge);
  scalars_[def(id).slot] = value;
}

void Registry::record(MetricId id, double value) {
  assert(def(id).kind == MetricKind::kHistogram);
  Hist& h = hists_[def(id).slot];
  ++h.counts[bucket_of(h.bounds, value)];
}

std::int64_t Registry::value(MetricId id) const {
  assert(def(id).kind != MetricKind::kHistogram);
  return scalars_[def(id).slot];
}

HistogramSnapshot Registry::histogram_snapshot(MetricId id) const {
  assert(def(id).kind == MetricKind::kHistogram);
  const Hist& h = hists_[def(id).slot];
  return HistogramSnapshot{h.bounds, h.counts};
}

void Registry::write_json(std::ostream& os) const {
  os << "{\n";
  for (std::size_t i = 0; i < defs_.size(); ++i) {
    const Def& d = defs_[i];
    if (i != 0) os << ",\n";
    os << "  \"" << d.name << "\": ";
    if (d.kind == MetricKind::kHistogram) {
      const Hist& h = hists_[d.slot];
      os << "{\"bounds\": [";
      for (std::size_t b = 0; b < h.bounds.size(); ++b) {
        if (b != 0) os << ", ";
        os << h.bounds[b];
      }
      os << "], \"counts\": [";
      for (std::size_t b = 0; b < h.counts.size(); ++b) {
        if (b != 0) os << ", ";
        os << h.counts[b];
      }
      os << "]}";
    } else {
      os << scalars_[d.slot];
    }
  }
  if (!defs_.empty()) os << "\n";
  os << "}\n";
}

}  // namespace ftc::obs
