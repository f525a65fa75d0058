//===- Oracle.h - The type-checker as a black-box oracle --------*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The central architectural idea of the paper (Figure 1): the searcher
/// never looks inside the type-checker; it only asks "does this modified
/// program type-check?". This interface is that boundary. The production
/// implementation wraps mini-Caml inference; tests substitute mocks to
/// exercise the searcher against adversarial oracles.
///
/// Accounting distinguishes two quantities the paper's Section 3.2 metrics
/// conflate once caching enters the picture:
///
///   * logicalCalls() -- how many questions the search asked. This is the
///     paper-comparable search-effort metric and the budget currency; it
///     grows on every typechecks()/typeOfNode() call regardless of how
///     the answer was produced.
///   * inferenceRuns() -- how many times inference actually executed.
///     Acceleration layers (core/CheckpointedOracle.h) drive this far
///     below logicalCalls(); for plain oracles the two coincide.
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_CORE_ORACLE_H
#define SEMINAL_CORE_ORACLE_H

#include "minicaml/Ast.h"
#include "minicaml/Infer.h"
#include "support/Trace.h"

#include <cstddef>
#include <optional>
#include <string>

namespace seminal {

/// Black-box type-check oracle over mini-Caml programs.
class Oracle {
public:
  virtual ~Oracle();

  /// Attaches a trace sink (may be null, not owned). With none -- the
  /// default -- every query takes the untraced fast path: one pointer
  /// test of overhead.
  void setInstrumentation(TraceSink *Trace) { TraceOut = Trace; }
  TraceSink *traceSink() const { return TraceOut; }

  /// \returns true if \p Prog type-checks. Counts one logical call.
  bool typechecks(const caml::Program &Prog) {
    ++LogicalCalls;
    if (!TraceOut)
      return typecheckImpl(Prog);
    return typechecksTraced(Prog);
  }

  /// Type-checks \p Prog and, on success, reports the rendered type of
  /// \p Node (which must be a node inside \p Prog). Used only to decorate
  /// messages ("of type int -> int -> int"); the search itself never
  /// consumes type information. Counts one logical call.
  std::optional<std::string> typeOfNode(const caml::Program &Prog,
                                        const caml::Expr *Node) {
    ++LogicalCalls;
    if (!TraceOut)
      return typeOfNodeImpl(Prog, Node);
    return typeOfNodeTraced(Prog, Node);
  }

  /// Hints that until seedPrefix(), clearPrefix() or conventionalError(),
  /// every queried program is \p Prog itself -- this one object -- and the
  /// caller only appends declarations to it between queries, each a copy
  /// of the next declaration of \p Source (the prefix localization walk
  /// of Section 2.1). Accelerated oracles then answer the probes with no
  /// inference when \p Source is the program conventionalError() last
  /// checked, since that check stopped at the first failing declaration;
  /// the default ignores the hint. A walk over any other program, and an
  /// unhinted caller, is answered by full inference, never by trusting
  /// object identity.
  virtual void beginPrefixWalk(const caml::Program &Prog,
                               const caml::Program &Source) {}

  /// Hints that until clearPrefix(), every queried program will consist of
  /// the first \p EditedDecl declarations of \p Prog unchanged plus one
  /// edited declaration at index \p EditedDecl. Accelerated oracles
  /// snapshot the prefix environment here; the default ignores the hint.
  /// The caller must not mutate the prefix declarations while seeded.
  virtual void seedPrefix(const caml::Program &Prog, unsigned EditedDecl) {}

  /// Drops the seedPrefix() and beginPrefixWalk() hints (and any state
  /// keyed on them).
  virtual void clearPrefix() {}

  /// The conventional checker diagnostic for \p Prog (does not count as a
  /// search call; used to render the baseline message).
  virtual std::optional<caml::TypeError>
  conventionalError(const caml::Program &Prog) = 0;

  /// The index of the declaration where the conventional checker stops on
  /// \p Prog, or none when it type-checks. Not a search call either: the
  /// slice-guided search pins localization with it. The default infers
  /// \p Prog once; accelerated oracles answer from their last
  /// conventionalError() pass when it checked this program.
  virtual std::optional<unsigned> failingDecl(const caml::Program &Prog);

  /// Search effort: every question asked (Section 3.2's metric).
  size_t logicalCalls() const { return LogicalCalls; }

  /// Work performed: inference executions. Plain oracles run inference
  /// once per question; accelerated oracles override this.
  virtual size_t inferenceRuns() const { return LogicalCalls; }

  /// Zeroes logicalCalls() (a long-lived oracle's per-request boundary).
  void resetCallCount() { LogicalCalls = 0; }

protected:
  virtual bool typecheckImpl(const caml::Program &Prog) = 0;
  virtual std::optional<std::string>
  typeOfNodeImpl(const caml::Program &Prog, const caml::Expr *Node) = 0;

  // Tracing support ---------------------------------------------------------
  // Implementations describe how they served the *current* call by
  // setting these before returning; the traced wrappers stamp them onto
  // the call's span. Plain oracles leave the defaults.
  /// Which acceleration layer answered ("full-inference", "verdict-cache",
  /// "checkpoint-incremental", "conv-memo", "conv-pass", "session-prefix").
  const char *LastServedBy = "full-inference";
  /// True when the verdict came from a memo rather than inference.
  bool LastCacheHit = false;

  TraceSink *TraceOut = nullptr;

private:
  bool typechecksTraced(const caml::Program &Prog);
  std::optional<std::string> typeOfNodeTraced(const caml::Program &Prog,
                                              const caml::Expr *Node);

  size_t LogicalCalls = 0;
};

/// The production oracle: mini-Caml Hindley-Milner inference, one full
/// program inference per question.
class CamlOracle : public Oracle {
public:
  std::optional<caml::TypeError>
  conventionalError(const caml::Program &Prog) override;

protected:
  bool typecheckImpl(const caml::Program &Prog) override;
  std::optional<std::string> typeOfNodeImpl(const caml::Program &Prog,
                                            const caml::Expr *Node) override;
};

} // namespace seminal

#endif // SEMINAL_CORE_ORACLE_H
