//===- Stdlib.h - Initial environment for mini-Caml -------------*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The standard-library values, constructors, and exceptions that every
/// program is checked against. Signatures are written in concrete type
/// syntax and parsed on first use, once per process: every type-checker
/// run, on any thread, converts the same immutable parsed trees into its
/// own type arena (Infer.cpp). Type variables are implicitly
/// generalized. The set covers everything the paper's examples touch
/// (List.map, List.combine, List.filter, List.mem, List.nth, refs, I/O).
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_MINICAML_STDLIB_H
#define SEMINAL_MINICAML_STDLIB_H

#include <string>
#include <vector>

namespace seminal {
namespace caml {

/// One standard-library value binding.
struct StdlibValue {
  std::string Name;
  std::string TypeSig; ///< Concrete syntax, e.g. "('a -> 'b) -> 'a list ->
                       ///< 'b list".
};

/// One predefined exception constructor.
struct StdlibException {
  std::string Name;
  std::string ArgTypeSig; ///< Empty for nullary exceptions.
};

/// All predefined value bindings.
const std::vector<StdlibValue> &stdlibValues();

/// All predefined exceptions (constructors of exn).
const std::vector<StdlibException> &stdlibExceptions();

} // namespace caml
} // namespace seminal

#endif // SEMINAL_MINICAML_STDLIB_H
