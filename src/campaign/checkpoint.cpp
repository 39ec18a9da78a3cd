#include "campaign/checkpoint.h"

#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/clock.h"
#include "obs/diag.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "reseed/serialize.h"
#include "util/failpoint.h"
#include "util/guarded_io.h"
#include "util/parse.h"
#include "util/rng.h"

namespace fbist::campaign {

namespace fs = std::filesystem;

namespace {

constexpr const char* kSuffix = ".ckpt";

/// Error messages are one rest-of-line field; fold any embedded
/// newline (exception text is free-form) into a space on write.
std::string one_line(std::string s) {
  for (char& c : s) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return s;
}

}  // namespace

std::uint64_t spec_hash(const CampaignSpec& spec) {
  util::Fnv1a hs(util::Fnv1a::kShortBasis);
  const std::vector<RunSpec> runs = spec.expand();
  hs.u64(runs.size());
  for (const RunSpec& rs : runs) {
    hs.str(rs.circuit);
    hs.str(tpg::tpg_kind_name(rs.tpg));
    hs.u64(rs.cycles);
    hs.str(solver_name(rs.solver));
  }
  // Every pipeline option that changes a run's result.  Left out:
  // builder.cycles_per_triplet and optimizer.solver, which every run
  // overrides, and exact.deadline and the matrix cache, which never
  // change a result.
  const reseed::PipelineOptions& po = spec.pipeline;
  hs.u64(po.atpg.podem.backtrack_limit);
  hs.u64(po.atpg.sat_escalate ? 1 : 0);
  hs.u64(po.atpg.sat.conflict_limit);
  hs.u64(po.atpg.seed);
  hs.u64(po.builder.seed);
  hs.u64(po.builder.shared_sigma ? 1 : 0);
  hs.u64(po.optimizer.reduce.use_essentiality ? 1 : 0);
  hs.u64(po.optimizer.reduce.use_row_dominance ? 1 : 0);
  hs.u64(po.optimizer.reduce.use_col_dominance ? 1 : 0);
  hs.u64(po.optimizer.exact.node_budget);
  hs.u64(po.optimizer.skip_reduction ? 1 : 0);
  hs.u64(po.optimizer.trim_lengths ? 1 : 0);
  return hs.h;
}

std::string spec_hash_hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return std::string(buf);
}

std::string checkpoint_to_string(const CheckpointRecord& rec) {
  const RunResult& r = rec.result;
  std::ostringstream out;
  out << "fbist-ckpt v2\n";
  out << "spec " << spec_hash_hex(rec.spec) << "\n";
  out << "run " << rec.position << " " << rec.total_runs << "\n";
  out << "circuit " << one_line(r.spec.circuit) << "\n";
  out << "tpg " << tpg::tpg_kind_name(r.spec.tpg) << "\n";
  out << "cycles " << r.spec.cycles << "\n";
  out << "solver " << solver_name(r.spec.solver) << "\n";
  out << "ok " << (r.ok ? 1 : 0) << "\n";
  if (!r.ok) {
    out << "error " << one_line(r.error) << "\n";
  } else {
    out << "counts " << r.circuit_inputs << " " << r.circuit_gates << " "
        << r.atpg_patterns << " " << r.faults_targeted << " " << r.redundant
        << " " << r.sat_detected << " " << r.num_triplets << " "
        << r.test_length << " " << r.faults_covered << " "
        << r.faults_uncoverable << " " << r.necessary_triplets << " "
        << r.solver_triplets << " " << (r.solver_optimal ? 1 : 0) << " "
        << r.rom_bits << "\n";
  }
  char ms[32];
  std::snprintf(ms, sizeof ms, "%.6f", r.wall_ms);
  out << "wall_ms " << ms << "\n";
  return out.str();
}

CheckpointRecord checkpoint_from_string(const std::string& text) {
  std::istringstream in(text);
  CheckpointRecord rec;
  std::string line;
  std::size_t line_no = 0;
  bool header_seen = false;
  bool spec_seen = false, run_seen = false, circuit_seen = false;
  bool tpg_seen = false, cycles_seen = false, solver_seen = false;
  int ok = -1;
  bool counts_seen = false, error_seen = false;

  auto fail = [&](const std::string& msg) -> void {
    throw std::runtime_error("ckpt line " + std::to_string(line_no) + ": " +
                             msg);
  };

  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string key;
    ss >> key;
    if (!header_seen) {
      std::string version;
      ss >> version;
      try {
        reseed::check_version_header(key, version, "fbist-ckpt", "v2");
      } catch (const std::runtime_error& e) {
        fail(e.what());
      }
      header_seen = true;
      continue;
    }
    if (key == "spec") {
      std::string hex;
      ss >> hex;
      if (hex.size() != 16 ||
          hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
        fail("bad spec hash");
      }
      rec.spec = std::stoull(hex, nullptr, 16);
      spec_seen = true;
    } else if (key == "run") {
      const std::optional<std::uint64_t> position = util::read_unsigned(ss);
      const std::optional<std::uint64_t> total = util::read_unsigned(ss);
      if (!position || !total || *total == 0 || *position >= *total) {
        fail("bad run position");
      }
      rec.position = *position;
      rec.total_runs = *total;
      run_seen = true;
    } else if (key == "circuit") {
      rec.result.spec.circuit = reseed::rest_of_line(line, key);
      if (rec.result.spec.circuit.empty()) fail("empty circuit");
      circuit_seen = true;
    } else if (key == "tpg") {
      std::string name;
      ss >> name;
      try {
        rec.result.spec.tpg = parse_tpg_kind(name);
      } catch (const std::runtime_error& e) {
        fail(e.what());
      }
      tpg_seen = true;
    } else if (key == "cycles") {
      const std::optional<std::uint64_t> cycles = util::read_unsigned(ss);
      if (!cycles || *cycles == 0) fail("bad cycles");
      rec.result.spec.cycles = *cycles;
      cycles_seen = true;
    } else if (key == "solver") {
      std::string name;
      ss >> name;
      try {
        rec.result.spec.solver = parse_solver(name);
      } catch (const std::runtime_error& e) {
        fail(e.what());
      }
      solver_seen = true;
    } else if (key == "ok") {
      const std::optional<std::uint64_t> flag = util::read_unsigned(ss);
      if (!flag || *flag > 1) fail("bad ok flag");
      ok = static_cast<int>(*flag);
      rec.result.ok = ok == 1;
    } else if (key == "error") {
      if (ok != 0) fail("error record without ok 0");
      rec.result.error = reseed::rest_of_line(line, key);
      error_seen = true;
    } else if (key == "counts") {
      if (ok != 1) fail("counts record without ok 1");
      RunResult& r = rec.result;
      std::size_t optimal = 0;
      for (std::size_t* field :
           {&r.circuit_inputs, &r.circuit_gates, &r.atpg_patterns,
            &r.faults_targeted, &r.redundant, &r.sat_detected,
            &r.num_triplets, &r.test_length, &r.faults_covered,
            &r.faults_uncoverable, &r.necessary_triplets, &r.solver_triplets,
            &optimal, &r.rom_bits}) {
        const std::optional<std::uint64_t> v = util::read_unsigned(ss);
        if (!v) fail("bad counts");
        *field = *v;
      }
      if (optimal > 1) fail("bad counts");
      r.solver_optimal = optimal == 1;
      counts_seen = true;
    } else if (key == "wall_ms") {
      ss >> rec.result.wall_ms;
      if (ss.fail() || rec.result.wall_ms < 0) fail("bad wall_ms");
    } else {
      fail("unknown record '" + key + "'");
    }
  }
  if (!header_seen) throw std::runtime_error("ckpt: empty input");
  if (!spec_seen || !run_seen) {
    throw std::runtime_error("ckpt: incomplete header (spec/run)");
  }
  if (!circuit_seen || !tpg_seen || !cycles_seen || !solver_seen || ok == -1) {
    throw std::runtime_error(
        "ckpt: incomplete run identity (circuit/tpg/cycles/solver/ok)");
  }
  if (rec.result.ok && !counts_seen) {
    throw std::runtime_error("ckpt: ok run without counts record");
  }
  if (!rec.result.ok && !error_seen) {
    throw std::runtime_error("ckpt: failed run without error record");
  }
  return rec;
}

namespace {

/// True when `pid` names a live process: kill(pid, 0) probes existence
/// without signalling (EPERM still means "exists, not ours").
bool pid_alive(long pid) {
  if (pid <= 0) return false;
  return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno == EPERM;
}

}  // namespace

CheckpointStore::CheckpointStore(std::string dir, const CampaignSpec& spec)
    : dir_(std::move(dir)), hash_(spec_hash(spec)), runs_(spec.expand()) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (!fs::is_directory(dir_, ec)) {
    throw std::runtime_error("checkpoint: cannot create directory " + dir_);
  }
  sweep_stale_temps();
}

void CheckpointStore::sweep_stale_temps() {
  // A writer killed mid-write leaves "<blob>.ckpt.tmp.<pid>" behind;
  // load() already ignores temps, but without a sweep they accumulate
  // forever across kill/resume cycles.  Remove every temp whose writer
  // pid is dead; a *live* pid (a concurrent shard process sharing the
  // directory, or ourselves) keeps its temp untouched.
  std::error_code ec;
  fs::directory_iterator it(dir_, ec);
  if (ec) return;
  const long self = static_cast<long>(::getpid());
  for (const fs::directory_entry& de : it) {
    const std::string name = de.path().filename().string();
    const std::size_t marker = name.find(std::string(kSuffix) + ".tmp.");
    if (marker == std::string::npos) continue;
    const std::string pid_part =
        name.substr(marker + std::string(kSuffix).size() + 5);
    if (pid_part.empty() ||
        pid_part.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    const long pid = std::strtol(pid_part.c_str(), nullptr, 10);
    if (pid == self || pid_alive(pid)) continue;
    if (fs::remove(de.path(), ec) && !ec) ++stale_removed_;
  }
  if (stale_removed_ != 0) {
    obs::diag(obs::Severity::kInfo, "checkpoint",
              "swept " + std::to_string(stale_removed_) +
                  " stale temp file(s) left by dead writers in " + dir_);
  }
}

std::string CheckpointStore::blob_path(std::size_t pos) const {
  char name[32];
  std::snprintf(name, sizeof name, "run-%06zu%s", pos, kSuffix);
  return (fs::path(dir_) / name).string();
}

void CheckpointStore::write(std::size_t pos, const RunResult& result) {
  OBS_HISTOGRAM(h_write, "checkpoint.write_ns");
  OBS_COUNTER(c_bytes, "checkpoint.bytes");
  [[maybe_unused]] const std::uint64_t start = obs::Clock::now_ns();
  if (pos >= runs_.size()) {
    throw std::runtime_error("checkpoint: position " + std::to_string(pos) +
                             " out of range (spec has " +
                             std::to_string(runs_.size()) + " runs)");
  }
  // Warn-and-continue degradation: once the breaker tripped (it warned
  // at trip time, naming the consequence), further writes are silent
  // no-ops — the sweep's results live only in memory from here on.
  if (!breaker_.allowed()) return;

  CheckpointRecord rec;
  rec.spec = hash_;
  rec.position = pos;
  rec.total_runs = runs_.size();
  rec.result = result;
  const std::string text = checkpoint_to_string(rec);

  // Guarded atomic write ("checkpoint.write"): temp-then-rename — a
  // crash mid-write leaves only a .tmp file behind (ignored by load,
  // swept on the next open), never a torn .ckpt blob; the pid
  // qualifier keeps shard processes sharing one directory off each
  // other's temps.  Transient failures retry with deterministic
  // backoff; a give-up throws (the runner warns and continues) and
  // charges the breaker.
  const std::string final_path = blob_path(pos);
  try {
    util::io::write_file_atomic("checkpoint.write", final_path, text);
  } catch (const util::io::IoError& e) {
    breaker_.record_failure();
    throw std::runtime_error("checkpoint: cannot write " + final_path + ": " +
                             e.what());
  }
  breaker_.record_success();
  OBS_COUNT(c_bytes, static_cast<std::uint64_t>(text.size()));
  OBS_OBSERVE(h_write, obs::Clock::now_ns() - start);
  OBS_INSTANT("checkpoint_write");
  std::lock_guard<std::mutex> lock(mu_);
  ++written_;
}

std::unordered_map<std::size_t, RunResult> CheckpointStore::load() {
  std::unordered_map<std::size_t, RunResult> out;
  std::error_code ec;
  fs::directory_iterator it(dir_, ec);
  if (ec) return out;
  for (const fs::directory_entry& de : it) {
    const fs::path& p = de.path();
    if (p.extension() != kSuffix) continue;
    CheckpointRecord rec;
    try {
      // Guarded read ("checkpoint.read"): transient read failures —
      // real or injected — retry before the blob is declared corrupt.
      rec = checkpoint_from_string(
          util::io::read_file("checkpoint.read", p.string()));
    } catch (const std::runtime_error& e) {
      // Torn or unreadable blob: its run re-executes and the rewrite
      // replaces the file.  Loud but non-fatal.
      obs::diag(obs::Severity::kWarn, "checkpoint",
                p.string() + ": " + e.what() +
                    " — ignoring, run will be re-executed");
      std::lock_guard<std::mutex> lock(mu_);
      ++corrupt_;
      continue;
    }
    // A well-formed blob from a *different* spec is not recoverable-by
    // -rebuild: the whole directory belongs to another sweep, and
    // silently mixing its results into this report would corrupt it.
    if (rec.spec != hash_) {
      throw std::runtime_error(
          "checkpoint " + p.string() + ": spec hash " +
          spec_hash_hex(rec.spec) + " does not match this campaign (" +
          spec_hash_hex(hash_) +
          "); the directory holds a different sweep — use a fresh "
          "--checkpoint directory or delete the stale blobs");
    }
    if (rec.total_runs != runs_.size() || rec.position >= runs_.size()) {
      throw std::runtime_error("checkpoint " + p.string() +
                               ": run position " +
                               std::to_string(rec.position) + "/" +
                               std::to_string(rec.total_runs) +
                               " does not fit this campaign's " +
                               std::to_string(runs_.size()) + " runs");
    }
    const RunSpec& want = runs_[rec.position];
    const RunSpec& got = rec.result.spec;
    if (got.circuit != want.circuit || got.tpg != want.tpg ||
        got.cycles != want.cycles || got.solver != want.solver) {
      throw std::runtime_error("checkpoint " + p.string() + ": run '" +
                               run_label(got) + "' at position " +
                               std::to_string(rec.position) +
                               " does not match the spec's '" +
                               run_label(want) + "'");
    }
    out.emplace(rec.position, std::move(rec.result));
  }
  return out;
}

std::uint64_t CheckpointStore::written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return written_;
}

std::uint64_t CheckpointStore::corrupt() const {
  std::lock_guard<std::mutex> lock(mu_);
  return corrupt_;
}

Report merge_checkpoints(const CampaignSpec& spec,
                         const std::vector<std::string>& dirs) {
  spec.validate();
  if (dirs.empty()) {
    throw std::runtime_error("merge: no checkpoint directories given");
  }
  const std::vector<RunSpec> runs = spec.expand();

  Report report;
  report.runs.resize(runs.size());
  std::vector<bool> have(runs.size(), false);
  std::uint64_t corrupt = 0;
  std::uint64_t stale = 0;
  for (const std::string& dir : dirs) {
    CheckpointStore store(dir, spec);
    std::unordered_map<std::size_t, RunResult> got = store.load();
    corrupt += store.corrupt();
    stale += store.stale_tmp_removed();
    for (auto& [pos, result] : got) {
      // Shards may overlap (a re-run shard, a shared directory given
      // twice); blob content is deterministic, so the first valid one
      // wins.
      if (have[pos]) continue;
      report.runs[pos] = std::move(result);
      have[pos] = true;
    }
  }

  std::size_t missing = 0;
  std::string first_missing;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (have[i]) continue;
    ++missing;
    if (first_missing.empty()) {
      first_missing = run_label(runs[i]) + " (position " + std::to_string(i) +
                      ")";
    }
  }
  if (missing != 0) {
    throw std::runtime_error(
        "merge: " + std::to_string(missing) + " of " +
        std::to_string(runs.size()) + " runs have no checkpoint (first: " +
        first_missing + "); run the missing shard(s) before merging");
  }

  report.checkpoint.enabled = true;
  report.checkpoint.resumed = runs.size();
  report.checkpoint.corrupt = corrupt;
  report.checkpoint.stale_tmp_removed = stale;
  return report;
}

}  // namespace fbist::campaign
