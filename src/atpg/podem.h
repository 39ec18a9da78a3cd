// PODEM (Path-Oriented DEcision Making) test generation for one fault.
//
// Classic algorithm: decisions are made only on primary inputs, derived
// values are obtained by forward implication over the 5-valued algebra,
// objectives are (activate fault) then (propagate a D through the
// closest D-frontier gate), and objectives are mapped to PI assignments
// by a controllability-guided backtrace.  A backtrack limit bounds the
// search; exhausting the search space proves the fault untestable
// (combinationally redundant).  The limit can be given per call: the
// search itself never depends on it, so a smaller budget only stops the
// same search earlier, and a call that does not abort at budget b
// returns exactly what it returns at any larger budget.
//
// Implication is event-driven: a changed net queues its readers in
// per-level buckets, which drain in ascending level, so a gate is
// evaluated at most once per assignment and only after all of its
// changed fanins; a gate whose value does not change stops the wave.
// Values are two-rail Val5 bytes (atpg/values.h), and imply() evaluates
// each queued gate inline from a per-net record (fanin span and RailOp):
// an AND/OR-family gate is one AND-reduce and one OR-reduce over its
// fanin bytes plus a rail select, with no per-gate type switch and no
// fanin copy.  Each reader is listed with its level, so queueing it
// touches nothing else.
// Implication stays inside the fault's region, the transitive fanin of
// the site and its fanout cone: set() queues no reader outside it, so
// nets outside stay X.  Everything the search reads lies in the region
// (the site, the cone and its readers, the fanins of frontier gates,
// every net a backtrace walks, every output that can carry a D), and a
// region net's fanins are region nets.
// Every value change is logged on a trail of (net, previous value)
// entries, and each decision frame records the trail length before its
// assignment, so a flip or a pop costs only the changes made since that
// decision.  Five-valued implication is a pure function of the PI
// assignment, so on every net it reads the search sees the value a full
// forward pass over the circuit would give.
//
// Structure access (fanin/fanout adjacency, levels, per-fault cones)
// goes through a netlist::CompiledCircuit that the engine borrows — in
// run_atpg the same one the fault simulator and the SAT engine read —
// instead of re-deriving levels and cones per Podem instance.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "atpg/values.h"
#include "fault/fault.h"
#include "netlist/compiled.h"
#include "util/wideword.h"

namespace fbist::atpg {

/// Outcome of one PODEM run.
enum class PodemStatus {
  kTestFound,    // `pattern` detects the fault (X bits filled later)
  kUntestable,   // search space exhausted — fault is redundant
  kAborted,      // backtrack limit hit — undecided
};

struct PodemResult {
  PodemStatus status = PodemStatus::kAborted;
  /// PI assignment; bit i = value of input i.  Only meaningful bits are
  /// those in `care`; others may take any value.
  util::WideWord pattern;
  /// care.get_bit(i) == input i was assigned by the search.
  util::WideWord care;
  std::size_t backtracks = 0;
  std::size_t decisions = 0;
};

struct PodemOptions {
  /// Backtrack budget of generate(f); generate(f, b) overrides it for
  /// one call.  Each backtrack undoes the trail to its decision and
  /// implies the flipped value through the affected cone, so this bounds
  /// worst-case per-fault search effort; faults that exhaust it are
  /// reported kAborted and leave the target list.
  std::size_t backtrack_limit = 600;
};

/// PODEM engine bound to one compiled circuit, which it borrows
/// (reused across faults).
class Podem {
 public:
  /// Throws std::invalid_argument when `cc` was compiled without cone
  /// programs (the structure-only form): each search reads its fault's
  /// cone.
  explicit Podem(const netlist::CompiledCircuit& cc, PodemOptions opts = {});
  Podem(const netlist::CompiledCircuit&&, PodemOptions = {}) = delete;

  /// Attempts to generate a test for `f` within the options' backtrack
  /// budget.  Bumps the `atpg.podem_*` effort counters once per call.
  PodemResult generate(const fault::Fault& f);
  /// The same search under the budget `backtrack_limit`: it aborts on
  /// backtrack `backtrack_limit + 1`, so 0 aborts on the first backtrack.
  PodemResult generate(const fault::Fault& f, std::size_t backtrack_limit);

 private:
  struct Frame;  // decision-stack frame

  PodemResult search(const fault::Fault& f, std::size_t backtrack_limit);
  /// Sets `net` to `v` (trailing the old value) and implies the change
  /// forward through every gate it reaches.
  void imply(netlist::NetId net, Val5 v);
  /// Writes one value (the fault site's faulty side stays pinned); on a
  /// change, trails the old value and queues the net's readers inside
  /// the fault's region in their level buckets.
  void set(netlist::NetId net, Val5 v);
  /// Restores every value changed since the trail had length `mark`.
  void undo_to(std::size_t mark);
  bool fault_activated(const fault::Fault& f) const;
  bool d_at_output() const;
  /// Next objective (net, value); nullopt when none (failure): the fault
  /// can no longer be activated, or the D-frontier is empty, or its
  /// deepest gate has no X fanin.
  std::optional<std::pair<netlist::NetId, Tern>> objective(const fault::Fault& f) const;
  /// Maps an objective to a PI and value via controllability backtrace.
  std::pair<netlist::NetId, Tern> backtrace(netlist::NetId net, Tern value) const;

  struct TrailEntry {
    netlist::NetId net;
    Val5 previous;
  };

  /// What imply() reads of one net: its fanins and how its gate folds
  /// them (unused for inputs), and its readers as a range of readers_.
  struct Node {
    netlist::Span<netlist::NetId> fanin;
    RailOp op;
    std::uint32_t readers_begin = 0, readers_end = 0;
  };
  struct Reader {
    netlist::NetId net;
    std::uint32_t level;
  };

  const netlist::CompiledCircuit& cc_;
  PodemOptions opts_;
  std::vector<Node> node_;               // per net
  std::vector<Reader> readers_;          // every net's readers, net by net
  std::vector<Val5> value_;              // per net
  std::vector<TrailEntry> trail_;        // every value change, this fault
  std::vector<std::vector<netlist::NetId>> buckets_;  // queued gates, per level
  std::vector<std::uint8_t> queued_;     // per net: sits in a bucket
  std::uint32_t queue_hi_ = 0;           // highest level with a queued gate
  netlist::NetId site_ = netlist::kNullNet;  // current fault's net ...
  std::uint8_t pinned_ = 0;                  // ... and its stuck faulty rail
  std::size_t implications_ = 0;         // gate evaluations, this generate()
  std::vector<std::uint8_t> cc0_, cc1_;  // SCOAP-ish controllability (saturated)
  /// D/D' values only ever exist inside the fault's fanout cone, so the
  /// frontier scan walks this list ({fault net} ∪ cone gates) instead of
  /// the whole netlist.
  std::vector<netlist::NetId> cone_nets_;
  /// The fault's region, TFI(cone_nets_): a net is in it iff its entry
  /// equals region_stamp_, which each search() bumps before it marks
  /// the region with a fanin walk (region_walk_ is the walk's stack).
  std::vector<std::uint32_t> region_;
  std::uint32_t region_stamp_ = 0;
  std::vector<netlist::NetId> region_walk_;
};

}  // namespace fbist::atpg
