#include "obs/plane.h"

#include <cassert>
#include <fstream>
#include <stdexcept>
#include <string>

#include "util/cli.h"

namespace ftc::obs {

Plane::Plane(PlaneOptions options) : trace_(options.trace) {
  if (options.perf) perf_ = std::make_unique<PerfPlane>();
  Registry& r = metrics_;
  builtin_.rounds = r.counter("sim.rounds");
  builtin_.messages = r.counter("sim.messages");
  builtin_.words = r.counter("sim.words");
  builtin_.messages_lost = r.counter("sim.messages_lost");
  builtin_.messages_duplicated = r.counter("sim.messages_duplicated");
  builtin_.messages_reordered = r.counter("sim.messages_reordered");
  builtin_.crashes = r.counter("sim.crashes");
  builtin_.recoveries = r.counter("sim.recoveries");
  builtin_.scheduled_crashes = r.counter("fault.scheduled_crashes");
  builtin_.scheduled_recoveries = r.counter("fault.scheduled_recoveries");
  builtin_.suspicions = r.counter("detector.suspicions");
  builtin_.refutations = r.counter("detector.refutations");
  builtin_.promotions = r.counter("repair.promotions");
  builtin_.repair_waves = r.counter("repair.waves");
  builtin_.lp_iterations = r.counter("lp.iterations");
  builtin_.rounding_trials = r.counter("rounding.trials");
  builtin_.probe_doublings = r.counter("udg.probe_doublings");
  builtin_.live_nodes = r.gauge("sim.live_nodes");
  builtin_.running_nodes = r.gauge("sim.running_nodes");
  builtin_.arena_words = r.gauge("sim.arena_words");
  builtin_.max_message_words = r.gauge("sim.max_message_words");
  builtin_.messages_per_round = r.histogram("sim.messages_per_round",
                                            pow2_bounds(0, 24));
  builtin_.wave_joins = r.histogram("repair.wave_joins", pow2_bounds(0, 10));
  builtin_.coverage_deficit =
      r.histogram("repair.coverage_deficit", {1, 2, 3, 4, 6, 8, 16});

  Trace& t = trace_;
  builtin_.n_round = t.intern("round");
  builtin_.n_crash = t.intern("crash");
  builtin_.n_recover = t.intern("recover");
  builtin_.n_fault_plan = t.intern("fault.plan");
  builtin_.n_suspect = t.intern("suspect");
  builtin_.n_refute = t.intern("refute");
  builtin_.n_promote = t.intern("promote");
  builtin_.n_lp_iteration = t.intern("lp.iteration");
  builtin_.n_rounding_trial = t.intern("rounding.trial");
  builtin_.n_probe_doubling = t.intern("udg.probe_doubling");
}

void Plane::set_shards(int shards) {
  assert(shards >= 1);
  recorders_.resize(static_cast<std::size_t>(shards),
                    Recorder(&builtin_, &trace_));
}

void Plane::merge_shards() {
  for (Recorder& r : recorders_) {  // ascending shard order
    for (const auto& [id, delta] : r.counts_) metrics_.add(id, delta);
    for (const auto& [id, value] : r.records_) metrics_.record(id, value);
    for (const TraceEvent& e : r.events_) trace_.emit(e);
    r.counts_.clear();
    r.records_.clear();
    r.events_.clear();
  }
}

namespace {

bool ends_with(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::uint32_t parse_category_list(const std::string& list) {
  if (list.empty()) return kAllCategories;
  std::uint32_t mask = 0;
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    const std::string_view item(list.data() + start, comma - start);
    if (!item.empty()) {
      Category c;
      if (!parse_category(item, c)) {
        throw std::invalid_argument("--trace-categories: unknown category '" +
                                    std::string(item) + "'");
      }
      mask |= category_bit(c);
    }
    start = comma + 1;
  }
  return mask;
}

void write_file(const std::string& path, const auto& writer) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("observability: cannot open '" + path +
                             "' for writing");
  }
  writer(os);
}

}  // namespace

std::unique_ptr<Plane> make_plane(const util::ObsFlags& flags) {
  if (!flags.enabled()) return nullptr;
  PlaneOptions options;
  options.perf = flags.perf;
  if (flags.capacity <= 0) {
    throw std::invalid_argument("--trace-capacity=" +
                                std::to_string(flags.capacity) +
                                ": must be positive");
  }
  options.trace.capacity = static_cast<std::size_t>(flags.capacity);
  options.trace.category_mask = parse_category_list(flags.categories);
  if (!flags.severity.empty()) {
    Severity s;
    if (!parse_severity(flags.severity, s)) {
      throw std::invalid_argument("--trace-severity: unknown severity '" +
                                  flags.severity + "'");
    }
    options.trace.min_severity = s;
  }
  return std::make_unique<Plane>(options);
}

void export_plane(const Plane& plane, const util::ObsFlags& flags) {
  if (!flags.metrics_path.empty()) {
    write_file(flags.metrics_path,
               [&](std::ostream& os) { plane.metrics().write_json(os); });
  }
  if (plane.perf() != nullptr && !flags.perf_path.empty()) {
    write_file(flags.perf_path,
               [&](std::ostream& os) { plane.perf()->export_jsonl(os); });
  }
  if (!flags.trace_path.empty()) {
    if (ends_with(flags.trace_path, ".jsonl")) {
      write_file(flags.trace_path,
                 [&](std::ostream& os) { plane.trace().export_jsonl(os); });
    } else {
      write_file(flags.trace_path,
                 [&](std::ostream& os) { plane.trace().export_chrome(os); });
      write_file(flags.trace_path + ".jsonl",
                 [&](std::ostream& os) { plane.trace().export_jsonl(os); });
    }
  }
}

}  // namespace ftc::obs
