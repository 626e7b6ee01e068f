// Prints the finite-difference gradient audit as a table.
//
// Runs the same battery as tests/nn_gradcheck_test.cc (every backbone,
// every parameter at gate-block resolution, attention and loss paths) and
// prints one line per audited block with its max relative error. Exits
// non-zero if any block exceeds the tolerance, so it can serve as a CI gate
// or a quick local smoke test after touching a backward pass.
//
// Usage: gradcheck [max_checks_per_block] [tolerance]

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "eval/gradcheck.h"

int main(int argc, char** argv) {
  neutraj::eval::GradAuditOptions opts;
  double tolerance = 1e-4;
  if (argc > 1) {
    opts.max_checks = static_cast<size_t>(std::strtoul(argv[1], nullptr, 10));
  }
  if (argc > 2) tolerance = std::strtod(argv[2], nullptr);
  if (opts.max_checks == 0 || !(tolerance > 0.0)) {
    std::fprintf(stderr, "usage: %s [max_checks_per_block] [tolerance]\n",
                 argv[0]);
    return 2;
  }

  const std::vector<neutraj::eval::GradAuditRecord> records =
      neutraj::eval::RunGradientAudit(opts);
  std::fputs(neutraj::eval::FormatGradAuditTable(records).c_str(), stdout);

  size_t failures = 0;
  double worst = 0.0;
  std::string worst_block;
  for (const auto& r : records) {
    if (r.max_rel_err > worst) {
      worst = r.max_rel_err;
      worst_block = r.case_name + " " + r.block;
    }
    if (r.max_rel_err >= tolerance) ++failures;
  }
  std::printf("\n%zu blocks audited, worst %.3e (%s), tolerance %.1e: %s\n",
              records.size(), worst, worst_block.c_str(), tolerance,
              failures == 0 ? "OK" : "FAIL");
  return failures == 0 ? 0 : 1;
}
