//===- Verify.h - Output checks run outside the timed window ---------------==//
//
// Every timed check's output is fingerprinted; after the window the
// benchmark re-derives each distinct input's output and checks it against
// the fingerprints, an acceleration-off reference run, a fresh type check of
// the top suggestion, and the mutations' ground truth.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_VERIFY_H
#define PERFBENCH_VERIFY_H

#include "Workloads.h"

#include "core/Seminal.h"

#include <cstdint>
#include <string>

namespace perfbench {

/// The ranked list as a user sees it: one line per suggestion with rank,
/// kind, layer, description, path and rendered message. Paths are written
/// relative to \p FailingDecl so equivalent programs with different prefix
/// lengths render identically.
std::string renderRankedList(const seminal::SeminalReport &R,
                             unsigned FailingDecl);

/// A check's whole output: the conventional message plus the ranked list.
std::string renderOutput(const seminal::SeminalReport &R);

uint64_t fingerprint(const std::string &Output);

/// The search with acceleration off: the plain one-inference-per-question
/// oracle, no checkpoint, verdict cache or arena; ranked and truncated the
/// way runSeminal does.
seminal::SeminalReport plainReference(const std::string &Source);

/// Outcome of verifying one input.
struct InputCheck {
  bool Ok = true;
  std::string Why; ///< First failed condition.
  int TrueFixRank = 0; ///< 1-based rank of the ground-truth fix; 0 = absent.
};

/// Checks \p R, the accelerated one-shot report for \p In: it parsed, did
/// not exhaust its budget, failed at In.FailingDecl, and its top
/// suggestion's program type-checks under a fresh typecheckProgram. When
/// \p Reference is given (a plainReference of \p In, or of an equivalent
/// program whose failing declaration is \p ReferenceFailingDecl), the ranked
/// lists must also be identical.
InputCheck verifyInput(const seminal::SeminalReport &R, const BenchInput &In,
                       const seminal::SeminalReport *Reference,
                       unsigned ReferenceFailingDecl);

} // namespace perfbench

#endif // PERFBENCH_VERIFY_H
