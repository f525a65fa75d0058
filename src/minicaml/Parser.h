//===- Parser.h - Mini-Caml parser ------------------------------*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for mini-Caml with OCaml-compatible operator
/// precedence. Notably it shares OCaml's parse of `[1, 2, 3]` as a
/// one-element list containing a triple -- the error class the paper's
/// list-comma constructive change targets -- and lets a nested `match`
/// swallow the outer match's remaining arms, motivating the
/// reparenthesizing change of Section 3.2.
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_MINICAML_PARSER_H
#define SEMINAL_MINICAML_PARSER_H

#include "minicaml/Ast.h"
#include "minicaml/Token.h"

#include <optional>
#include <string>
#include <vector>

namespace seminal {
namespace caml {

/// A fatal syntax error. The search procedure only runs on files that
/// parse (it sits between parsing and type-checking, Section 2).
struct ParseError {
  SourceLoc Loc;
  std::string Message;

  std::string str() const { return Loc.str() + ": " + Message; }
};

/// Outcome of a parse: a program, or the first syntax error.
struct ParseResult {
  std::optional<Program> Prog;
  std::optional<ParseError> Error;

  bool ok() const { return Prog.has_value(); }
};

/// Deepest nesting the parser accepts. Every recursive descent holds one
/// level while it parses: a parenthesized, bracketed or keyword-nested
/// sub-expression (let ... in, fun, match, if), one more `;` or
/// right-associative operand, a prefix operator, a nested pattern or a
/// nested type expression. Past the bound the parse stops with a located
/// syntax error instead of exhausting the native stack. The generated
/// corpus and scaling programs nest at most ~20 levels. The bound is the
/// same for every build type and keeps the parse and the recursive passes
/// downstream (inference, search, printing) within an 8 MiB thread stack
/// even under AddressSanitizer, whose enlarged frames overflowed that
/// stack at ~900 levels.
constexpr unsigned MaxNestingDepth = 256;

/// Parses a complete source file (a sequence of structure items).
ParseResult parseProgram(const std::string &Source);

/// Parses a single expression (testing convenience).
struct ParseExprResult {
  ExprPtr E;
  std::optional<ParseError> Error;
  bool ok() const { return E != nullptr; }
};
ParseExprResult parseExpression(const std::string &Source);

/// Parses a type signature written in concrete syntax (used to load the
/// standard-library environment). \returns null and sets \p Error on
/// malformed input.
TypeExprPtr parseTypeSignature(const std::string &Source,
                               std::optional<ParseError> &Error);

} // namespace caml
} // namespace seminal

#endif // SEMINAL_MINICAML_PARSER_H
