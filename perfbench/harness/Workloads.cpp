//===- Workloads.cpp - Seeded inputs for the three benchmark workloads -----==//

#include "Workloads.h"

#include "corpus/Generator.h"
#include "corpus/Programs.h"
#include "minicaml/Infer.h"
#include "minicaml/Parser.h"
#include "minicaml/Printer.h"

#include <stdexcept>

using namespace seminal;
using namespace seminal::caml;

namespace perfbench {

std::vector<BenchInput> corpusSweepInputs(uint64_t Seed) {
  std::vector<BenchInput> Out;
  for (unsigned K = 0; K < CorporaPerPass; ++K) {
    CorpusOptions Opts;
    Opts.Seed = Seed * CorporaPerPass + K;
    Opts.Scale = 0.5;
    Corpus C = generateCorpus(Opts);
    for (CorpusFile &F : C.Analyzed) {
      BenchInput In;
      In.Source = std::move(F.Source);
      In.Truths = std::move(F.Truths);
      ParseResult P = parseProgram(In.Source);
      if (!P.ok())
        throw std::runtime_error("generated corpus file does not parse");
      In.Decls = unsigned(P.Prog->Decls.size());
      TypecheckResult T = typecheckProgram(*P.Prog);
      In.FailingDecl = T.ErrorDeclIndex ? *T.ErrorDeclIndex : 0;
      Out.push_back(std::move(In));
    }
  }
  return Out;
}

LargeProgramGenerator::LargeProgramGenerator() {
  for (const AssignmentTemplate &A : assignmentTemplates()) {
    ParseResult P = parseProgram(A.Source);
    if (!P.ok())
      throw std::runtime_error("assignment template does not parse");
    Templates.push_back(std::move(*P.Prog));
  }
  for (const Program &T : Templates) {
    DeclsPerCopy += unsigned(T.Decls.size());
    Assignment Part;
    for (const DeclPtr &D : T.Decls)
      (D->kind() == Decl::Kind::Let ? Part.Lets : Part.Types)
          .push_back(D.get());
    Parts.push_back(std::move(Part));
  }
}

namespace {

/// `let main = let d1 in let d2 in ... let dn in ()` over \p Lets.
DeclPtr nestAsLetIn(const std::vector<const Decl *> &Lets) {
  ExprPtr Body = makeUnitLit();
  for (size_t I = Lets.size(); I-- > 0;) {
    const Decl &D = *Lets[I];
    std::vector<PatternPtr> Params;
    for (const PatternPtr &P : D.Params)
      Params.push_back(P->clone());
    Body = makeLet(D.IsRec, D.Binding->clone(), std::move(Params),
                   D.Rhs->clone(), std::move(Body));
  }
  return makeLetDecl(false, makeVarPattern("main"), {}, std::move(Body));
}

std::string trailerText(long Value) {
  return "let trailer = " + std::to_string(Value) + "\n";
}

} // namespace

BenchInput LargeProgramGenerator::build(unsigned Copies,
                                        unsigned AssignmentIdx,
                                        Rng &R) const {
  const Assignment &Part = Parts[AssignmentIdx % Parts.size()];
  Program Prefix;
  for (unsigned C = 0; C < Copies; ++C)
    for (const Program &T : Templates)
      for (const DeclPtr &D : T.Decls)
        Prefix.Decls.push_back(D->clone());
  const unsigned FailingIdx = unsigned(Prefix.Decls.size());
  std::string PrefixText = printProgram(Prefix);

  // The mutation site is confined to the nested declaration by mutating a
  // small program of the assignment's types plus that declaration.
  Program Small;
  for (const Decl *D : Part.Types)
    Small.Decls.push_back(D->clone());
  Small.Decls.push_back(nestAsLetIn(Part.Lets));
  const unsigned SmallIdx = unsigned(Small.Decls.size() - 1);

  for (int Attempt = 0; Attempt < 256; ++Attempt) {
    std::optional<MutationResult> M = mutateProgram(Small, 3, R);
    if (!M)
      continue;
    bool InNested = true;
    for (const GroundTruth &T : M->Truths)
      InNested = InNested && T.Path.DeclIndex == SmallIdx;
    if (!InNested)
      continue;
    BenchInput In;
    In.Source = PrefixText + printDecl(*M->Mutated.Decls[SmallIdx]) + "\n" +
                trailerText(0);
    ParseResult P = parseProgram(In.Source);
    if (!P.ok() || P.Prog->Decls.size() != size_t(FailingIdx) + 2 ||
        !P.Prog->Decls[FailingIdx]->equals(*M->Mutated.Decls[SmallIdx]))
      continue;
    // The nested mistakes must be what fails first in the whole program
    // (a dropped `rec` could resolve to a prefix binding and type-check).
    TypecheckResult TR = typecheckProgram(*P.Prog);
    if (TR.ok() || !TR.ErrorDeclIndex || *TR.ErrorDeclIndex != FailingIdx)
      continue;
    for (GroundTruth &T : M->Truths) {
      T.Path.DeclIndex = FailingIdx;
      In.Truths.push_back(std::move(T));
    }
    In.Decls = FailingIdx + 2;
    In.FailingDecl = FailingIdx;
    return In;
  }
  throw std::runtime_error("no failing large-program mutant found");
}

BenchInput LargeProgramGenerator::withTrailer(const BenchInput &In,
                                              long Value) {
  BenchInput Out = In;
  size_t At = Out.Source.rfind("let trailer = ");
  Out.Source.replace(At, std::string::npos, trailerText(Value));
  return Out;
}

BenchInput
LargeProgramGenerator::oneCopyEquivalent(const BenchInput &In) const {
  ParseResult P = parseProgram(In.Source);
  if (!P.ok() || In.FailingDecl < DeclsPerCopy)
    throw std::runtime_error("not a large-program input");
  const unsigned Drop = In.FailingDecl - DeclsPerCopy;
  P.Prog->Decls.erase(P.Prog->Decls.begin(), P.Prog->Decls.begin() + Drop);
  BenchInput Out;
  Out.Source = printProgram(*P.Prog);
  Out.Truths = In.Truths;
  for (GroundTruth &T : Out.Truths)
    T.Path.DeclIndex -= Drop;
  Out.Decls = In.Decls - Drop;
  Out.FailingDecl = DeclsPerCopy;
  return Out;
}

std::vector<BenchInput> largeProgramInputs(uint64_t Seed) {
  LargeProgramGenerator B;
  Rng R(Seed ^ 0x6c617267ull);
  std::vector<BenchInput> Out;
  for (unsigned V = 0; V < LargeProgramsPerSize[2]; ++V)
    for (size_t S = 0; S < std::size(LargeSizes); ++S)
      if (V < LargeProgramsPerSize[S]) {
        Out.push_back(B.build(LargeSizes[S], V, R));
        if (Out.back().Decls != LargeSizeDecls[S])
          throw std::runtime_error("unexpected large-program size");
      }
  return Out;
}

std::string EditSession::source(uint64_t K) const {
  return LargeProgramGenerator::withTrailer(Variants[variantOf(K)], long(K))
      .Source;
}

std::vector<EditSession>
daemonEditSessions(uint64_t Seed, const std::vector<std::string> &Names,
                   unsigned VariantsPerSession) {
  LargeProgramGenerator B;
  Rng R(Seed ^ 0x65646974ull);
  std::vector<EditSession> Out;
  for (size_t S = 0; S < Names.size(); ++S) {
    EditSession E;
    E.Name = Names[S];
    // Consecutive variants rotate through the five assignments, so every
    // seed gives each session the same mix of declaration sizes.
    for (unsigned V = 0; V < VariantsPerSession; ++V)
      E.Variants.push_back(B.build(EditCopies, unsigned(S + V), R));
    Out.push_back(std::move(E));
  }
  return Out;
}

} // namespace perfbench
