#include "campaign/report.h"

#include <sstream>

#include "util/json.h"
#include "util/table.h"

namespace fbist::campaign {

std::size_t Report::num_ok() const {
  std::size_t n = 0;
  for (const auto& r : runs) {
    if (r.ok) ++n;
  }
  return n;
}

std::string Report::to_json(bool include_timing) const {
  util::JsonWriter w;
  w.begin_object();
  w.key("format");
  w.value("fbist-campaign-report");
  w.key("version");
  w.value(std::uint64_t{1});
  w.key("runs");
  w.begin_array();
  for (const auto& r : runs) {
    w.begin_object();
    w.key("circuit");
    w.value(r.spec.circuit);
    w.key("tpg");
    w.value(tpg::tpg_kind_name(r.spec.tpg));
    w.key("cycles");
    w.value(static_cast<std::uint64_t>(r.spec.cycles));
    w.key("solver");
    w.value(solver_name(r.spec.solver));
    w.key("ok");
    w.value(r.ok);
    if (!r.ok) {
      w.key("error");
      w.value(r.error);
    } else {
      w.key("circuit_inputs");
      w.value(static_cast<std::uint64_t>(r.circuit_inputs));
      w.key("circuit_gates");
      w.value(static_cast<std::uint64_t>(r.circuit_gates));
      w.key("atpg_patterns");
      w.value(static_cast<std::uint64_t>(r.atpg_patterns));
      w.key("faults_targeted");
      w.value(static_cast<std::uint64_t>(r.faults_targeted));
      w.key("redundant");
      w.value(static_cast<std::uint64_t>(r.redundant));
      w.key("sat_detected");
      w.value(static_cast<std::uint64_t>(r.sat_detected));
      w.key("triplets");
      w.value(static_cast<std::uint64_t>(r.num_triplets));
      w.key("test_length");
      w.value(static_cast<std::uint64_t>(r.test_length));
      w.key("faults_covered");
      w.value(static_cast<std::uint64_t>(r.faults_covered));
      w.key("faults_uncoverable");
      w.value(static_cast<std::uint64_t>(r.faults_uncoverable));
      w.key("coverage_percent");
      w.value_fixed(r.coverage_percent(), 4);
      w.key("necessary_triplets");
      w.value(static_cast<std::uint64_t>(r.necessary_triplets));
      w.key("solver_triplets");
      w.value(static_cast<std::uint64_t>(r.solver_triplets));
      w.key("solver_optimal");
      w.value(r.solver_optimal);
      w.key("rom_bits");
      w.value(static_cast<std::uint64_t>(r.rom_bits));
    }
    w.end_object();
  }
  w.end_array();
  {
    std::size_t triplets = 0, length = 0;
    for (const auto& r : runs) {
      triplets += r.num_triplets;
      length += r.test_length;
    }
    w.key("summary");
    w.begin_object();
    w.key("runs");
    w.value(static_cast<std::uint64_t>(runs.size()));
    w.key("ok");
    w.value(static_cast<std::uint64_t>(num_ok()));
    w.key("failed");
    w.value(static_cast<std::uint64_t>(num_failed()));
    w.key("total_triplets");
    w.value(static_cast<std::uint64_t>(triplets));
    w.key("total_test_length");
    w.value(static_cast<std::uint64_t>(length));
    w.end_object();
  }
  if (include_timing) {
    w.key("execution");
    w.begin_object();
    w.key("jobs");
    w.value(static_cast<std::uint64_t>(jobs));
    w.key("wall_ms");
    w.value_fixed(wall_ms, 1);
    w.key("run_wall_ms");
    w.begin_array();
    for (const auto& r : runs) w.value_fixed(r.wall_ms, 1);
    w.end_array();
    if (cache.enabled) {
      w.key("matrix_cache");
      w.begin_object();
      w.key("hits");
      w.value(cache.hits);
      w.key("misses");
      w.value(cache.misses);
      w.key("stores");
      w.value(cache.stores);
      w.end_object();
    }
    if (checkpoint.enabled) {
      w.key("checkpoint");
      w.begin_object();
      w.key("resumed");
      w.value(checkpoint.resumed);
      w.key("executed");
      w.value(checkpoint.executed);
      w.key("written");
      w.value(checkpoint.written);
      w.key("corrupt");
      w.value(checkpoint.corrupt);
      w.key("stale_tmp_removed");
      w.value(checkpoint.stale_tmp_removed);
      w.end_object();
    }
    if (shard_count > 1) {
      w.key("shard_index");
      w.value(static_cast<std::uint64_t>(shard_index));
      w.key("shard_count");
      w.value(static_cast<std::uint64_t>(shard_count));
    }
    if (metrics_enabled) {
      w.key("metrics");
      obs::write_metrics_json(w, metrics);
    }
    w.end_object();
  }
  w.end_object();
  return w.str() + "\n";
}

std::string Report::summary() const {
  util::Table table("campaign (" + std::to_string(runs.size()) + " runs, " +
                    std::to_string(num_failed()) + " failed)");
  table.set_header({"circuit", "tpg", "T", "solver", "#triplets",
                    "test length", "coverage %", "status"});
  for (const auto& r : runs) {
    table.add_row({r.spec.circuit, tpg::tpg_kind_name(r.spec.tpg),
                   std::to_string(r.spec.cycles), solver_name(r.spec.solver),
                   r.ok ? std::to_string(r.num_triplets) : "-",
                   r.ok ? std::to_string(r.test_length) : "-",
                   r.ok ? util::Table::fmt(r.coverage_percent(), 2) : "-",
                   r.ok ? "ok" : ("FAILED: " + r.error)});
  }
  std::ostringstream os;
  table.print(os);
  return os.str();
}

}  // namespace fbist::campaign
