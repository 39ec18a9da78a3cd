// Custom TPG: the flow is TPG-agnostic — bring your own step function.
//
// The paper stresses that Functional BIST "can work with any type of
// functions".  This example defines a custom TPG (a multiply-accumulate
// unit: state <- state * sigma + sigma, a common DSP datapath) by
// subclassing tpg::Tpg, then runs the identical set-covering flow on it.
//
//   $ ./custom_tpg [circuit]
#include <iostream>
#include <string>

#include "reseed/initial_builder.h"
#include "reseed/optimizer.h"
#include "reseed/pipeline.h"
#include "reseed/report.h"

namespace {

// A MAC-style accumulator: state <- state * sigma + sigma (mod 2^n).
// With odd sigma the map x -> sigma*(x+1) is a bijection, so the orbit
// does not collapse.
class MacTpg final : public fbist::tpg::Tpg {
 public:
  explicit MacTpg(std::size_t width) : width_(width) {}

  std::size_t width() const override { return width_; }

  void advance(fbist::util::WideWord& state,
               const fbist::util::WideWord& sigma) const override {
    state.mul(sigma);
    state.add(sigma);
  }

  fbist::util::WideWord legalize_sigma(
      const fbist::util::WideWord& sigma) const override {
    fbist::util::WideWord s = sigma;
    s.make_odd();
    return s;
  }

  std::string name() const override { return "mac"; }

 private:
  std::size_t width_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace fbist;

  const std::string circuit = argc > 1 ? argv[1] : "s420";
  reseed::Pipeline pipeline(circuit);

  const MacTpg mac(pipeline.circuit().num_inputs());
  std::cout << "custom TPG '" << mac.name() << "' on " << circuit << " ("
            << pipeline.circuit().num_inputs() << "-bit datapath)\n";

  reseed::BuilderOptions bopts;
  bopts.cycles_per_triplet = 64;
  const reseed::InitialReseeding init = reseed::build_initial_reseeding(
      pipeline.fault_sim(), mac, pipeline.atpg_patterns(), bopts);
  const reseed::ReseedingSolution sol = reseed::optimize(init);

  std::cout << reseed::solution_to_string(sol, "MAC-TPG reseeding solution:");
  std::cout << "\ncoverage: " << sol.faults_covered << "/" << sol.faults_targeted
            << " targeted faults\n";
  return sol.faults_covered == sol.faults_targeted ? 0 : 1;
}
