//===- EditorProgram.h - The synthetic editor-loop program ------*- C++ -*-==//
//
// The program the warm-session test (ServerTest) and the observability
// bench (bench_obs) resubmit in their edit loops: decls whose inference
// cost dwarfs their parse cost, one ill-typed decl near the end, and a
// trailing decl the "editor" keeps touching. Edits below the failing
// decl are the best case for session retention and the common case in
// practice (the user fixes code after the first error).
//
// The cost asymmetry comes from let-polymorphism: d<i>'s inferred type
// is a pair tree that doubles per link, the classic HM worst case, so
// the chain costs orders of magnitude more to infer than to parse.
// Depth 4 is calibrated to tens of milliseconds of inference -- depth
// 5 is minutes on this engine -- and stays fixed while the decl count
// only adds cheap filler decls. That keeps the warm path (which skips
// all inference) honest: it still pays the full parse + intern cost of
// every decl.
//
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_TESTS_EDITORPROGRAM_H
#define SEMINAL_TESTS_EDITORPROGRAM_H

#include <cstddef>
#include <string>

namespace seminal {

inline std::string makeEditorProgram(size_t Decls, int TailValue) {
  const size_t Depth = 4;
  std::string Out;
  size_t Emitted = 0;
  // Independent chains of Depth+1 decls each, so inference cost grows
  // linearly with the decl count while staying exponential per chain.
  for (size_t Chain = 0; Emitted + 3 < Decls; ++Chain) {
    std::string C = "c" + std::to_string(Chain) + "_";
    Out += "let " + C + "0 x = (x, x)\n";
    ++Emitted;
    for (size_t I = 1; I <= Depth && Emitted + 3 < Decls; ++I, ++Emitted) {
      std::string N = std::to_string(I), P = std::to_string(I - 1);
      Out += "let " + C + N + " x = " + C + P + " (" + C + P + " x)\n";
    }
  }
  Out += "let helper n = n + 1\n";
  Out += "let broken = helper true\n"; // bool where int expected
  Out += "let tail = " + std::to_string(TailValue) + "\n";
  return Out;
}

} // namespace seminal

#endif // SEMINAL_TESTS_EDITORPROGRAM_H
