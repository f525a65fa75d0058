//===- Workloads.h - Seeded inputs for the three benchmark workloads -------==//
//
// Every input is generated from the public corpus functions
// (generateCorpus, assignmentTemplates, mutateProgram) and one seed; the
// system under test only ever receives the printed source text.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "corpus/Mutation.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One ill-typed program plus the ground truth of its seeded mistakes
/// (paths against the parsed \c Source).
struct BenchInput {
  std::string Source;
  std::vector<seminal::GroundTruth> Truths;
  unsigned Decls = 0;       ///< Top-level declarations.
  unsigned FailingDecl = 0; ///< Index of the first failing declaration.
};

/// Student corpora per corpus_sweep pass. One corpus at the default scale
/// 0.5 is 82 files; four of them keep a run's figures from hinging on one
/// corpus's few slowest or hardest files.
inline constexpr unsigned CorporaPerPass = 4;

/// corpus_sweep: CorporaPerPass seeded student corpora at scale 0.5 (82
/// files of ~16 declarations and 1-3 errors each, per corpus).
std::vector<BenchInput> corpusSweepInputs(uint64_t Seed);

/// Builds members of the large_program family: \p Copies copies of all five
/// assignment templates (a well-typed prefix of 79 declarations per copy),
/// then one failing declaration -- assignment \p Assignment's let
/// declarations nested as `let ... in` with three seeded mistakes, so that
/// triage runs -- then a trailing `let trailer = N` declaration.
class LargeProgramGenerator {
public:
  LargeProgramGenerator();

  /// A fresh failing program drawn from \p R (resampled until the first
  /// failing declaration is the nested one).
  BenchInput build(unsigned Copies, unsigned Assignment, seminal::Rng &R) const;

  /// Rewrites the trailing declaration of \p In (built by build()) to bind
  /// \p Value; the declarations before it are untouched byte for byte.
  static BenchInput withTrailer(const BenchInput &In, long Value);

  /// \p In with every template copy but the last dropped from its prefix.
  /// The failing declaration then sees the same bindings, so an
  /// acceleration-off reference run of this much smaller program must rank
  /// the same suggestions (paths shift by the dropped declarations).
  BenchInput oneCopyEquivalent(const BenchInput &In) const;

private:
  struct Assignment {
    std::vector<const seminal::caml::Decl *> Types; ///< Type declarations.
    std::vector<const seminal::caml::Decl *> Lets;  ///< Let declarations.
  };
  std::vector<seminal::caml::Program> Templates;
  unsigned DeclsPerCopy = 0;
  std::vector<Assignment> Parts;
};

/// Template copies for the three large_program sizes, and the resulting
/// declaration counts (79 per copy, plus the failing and trailing ones).
inline constexpr unsigned LargeSizes[] = {1, 4, 12};
inline constexpr unsigned LargeSizeDecls[] = {81, 318, 950};
/// Distinct programs per size in one large_program pass. The large ones
/// are the majority, so the median and the tail percentile both read
/// 950-declaration checks, whose cost the shared prefix dominates rather
/// than the seeded mistakes; the others give the size curve.
inline constexpr unsigned LargeProgramsPerSize[] = {8, 8, 24};

/// large_program: LargeProgramsPerSize programs of each of LargeSizes,
/// interleaved by size; each size's nested declarations rotate through the
/// five assignments.
std::vector<BenchInput> largeProgramInputs(uint64_t Seed);

/// One named daemon_edit session. Request 0 primes the session before
/// timing; after it, every fifth request (k % 5 == 0) swaps the failing
/// declaration for the next variant and the other four edit the trailing
/// declaration after it.
struct EditSession {
  std::string Name;
  /// Failing-declaration variants, in the order a pass uses them.
  std::vector<BenchInput> Variants;

  /// Variant index, kind and source of request \p K.
  unsigned variantOf(uint64_t K) const {
    return unsigned((K / 5) % Variants.size());
  }
  bool isMiss(uint64_t K) const { return K > 0 && K % 5 == 0; }
  std::string source(uint64_t K) const;
};

/// Template copies behind the daemon_edit programs (160 declarations).
inline constexpr unsigned EditCopies = 2;

/// daemon_edit: one session per name, each with \p VariantsPerSession
/// failing variants.
std::vector<EditSession>
daemonEditSessions(uint64_t Seed, const std::vector<std::string> &Names,
                   unsigned VariantsPerSession);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
