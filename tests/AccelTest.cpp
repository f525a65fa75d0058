//===- AccelTest.cpp - Oracle acceleration equivalence tests ---------------==//
//
// The acceleration layer must be invisible: any combination of prefix
// checkpointing and verdict caching has to reproduce the plain oracle's
// searches bit for bit -- same suggestions in the same ranked order, same
// logical-call totals -- while doing strictly less inference. These tests
// pin that contract at three levels: the InferenceCheckpoint primitive
// (rollback correctness), the CheckpointedOracle (cache accounting), and
// whole runSeminal searches across every acceleration configuration,
// each compared against the plain CamlOracle reference (ReferenceRun.h).
//
//===----------------------------------------------------------------------===//

#include "ReferenceRun.h"

#include "core/CheckpointedOracle.h"
#include "core/Seminal.h"
#include "corpus/Programs.h"
#include "minicaml/Hash.h"
#include "minicaml/Parser.h"
#include "minicaml/Printer.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

using namespace seminal;
using namespace seminal::caml;

namespace {

Program parse(const std::string &Source) {
  ParseResult R = parseProgram(Source);
  EXPECT_TRUE(R.ok()) << Source;
  return std::move(*R.Prog);
}

/// The searcher scenarios from SearcherTest.cpp (paper examples, triage
/// batteries, mutated fragments) plus a multi-error triage case; the
/// equivalence tests replay each under every acceleration configuration.
const char *ScenarioSources[] = {
    // Paper examples.
    "let map2 f aList bList =\n"
    "  List.map (fun (a, b) -> f a b) (List.combine aList bList)\n"
    "let lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]\n"
    "let ans = List.filter (fun x -> x == 0) lst\n",
    "let add str lst = if List.mem str lst then lst\n"
    "                  else str :: lst\n"
    "let vList1 = [\"a\"; \"b\"]\n"
    "let s = \"c\"\n"
    "let out = add vList1 s\n",
    "let e1 x = x ^ \"!\"\nlet e2 = \"s\"\nlet t = if e1 e2 then 1 else 2\n",
    "let f y =\n"
    "  let x = \"oops\" in\n"
    "  (x + 1) + (x + 2) + (x + 3) + (x + 4)\n",
    "let f x = print x; x + 1\n",
    // Localization with later broken declarations.
    "let a = 1\nlet b = a + true\nlet c = 1 + \"x\"",
    // Triage: multiple independent errors.
    "let go y =\n"
    "  let x = 3 + true in\n"
    "  let z = y + 1 in\n"
    "  let w = 4 + \"hi\" in\n"
    "  z\n",
    "let f x y =\n"
    "  let n = List.length y in\n"
    "  match (x, y) with\n"
    "    (0, []) -> []\n"
    "  | (m, []) -> m\n"
    "  | (_, 5) -> 5 + \"hi\"\n",
    "let f a =\n"
    "  match (a + \"x\", a) with\n"
    "    (_, 0) -> 1 + true\n"
    "  | _ -> 2 + \"y\"\n",
    // Soundness-battery fragments.
    "let x = 1 + \"two\"",
    "let f (x, y) = x + y\nlet z = f 1 2",
    "let f x y = x + y\nlet z = f (1, 2)",
    "let x = [1, 2, 3]\nlet y = List.map (fun v -> v + 1) x",
    "let r = ref 0\nlet y = r + 1",
    "let l = 1 :: 2",
    "let f x = x ^ \"!\"\nlet y = f 3",
    "let swap (a, b) = (b, a)\nlet p = swap 1 2",
    "let f a b c = a + b + c\nlet x = f 1 2 + 3",
    "let x = (1, 2)\nlet y = fst x + snd x + x",
};

/// Byte-exact fingerprint of a ranked report: everything a suggestion
/// carries that is visible to ranking, rendering, or callers.
std::string fingerprint(const SeminalReport &R) {
  std::string Out;
  Out += "typechecks=" + std::to_string(R.InputTypechecks);
  Out += " failing=" +
         (R.FailingDeclIndex ? std::to_string(*R.FailingDeclIndex)
                             : std::string("none"));
  Out += " budget=" + std::to_string(R.BudgetExhausted);
  Out += "\n";
  for (const Suggestion &S : R.Suggestions) {
    Out += "[" + std::to_string(int(S.Kind)) + "/" + S.Path.str() + "/p" +
           std::to_string(S.Priority) + "/t" +
           std::to_string(S.TriageRemovals) + "] ";
    if (S.Original)
      Out += printExpr(*S.Original);
    Out += " => ";
    if (S.Replacement)
      Out += printExpr(*S.Replacement);
    Out += " :: " + S.ReplacementType.value_or("-");
    Out += " :: " + S.Description;
    Out += " :: " + S.PatternBefore + "/" + S.PatternAfter;
    Out += " :: ctx " + S.ContextAfter;
    Out += " :: " + std::to_string(hashProgram(S.Modified));
    Out += "\n";
    Out += renderSuggestion(S) + "\n";
  }
  return Out;
}

SeminalOptions withAccel(bool Checkpoint, bool VerdictCache) {
  SeminalOptions Opts;
  Opts.Search.Accel.Checkpoint = Checkpoint;
  Opts.Search.Accel.VerdictCache = VerdictCache;
  return Opts;
}

//===----------------------------------------------------------------------===//
// InferenceCheckpoint: rollback correctness
//===----------------------------------------------------------------------===//

TEST(CheckpointTest, MatchesFullInferenceOnEveryPrefix) {
  for (const char *Src : ScenarioSources) {
    Program P = parse(Src);
    for (unsigned K = 0; K < P.Decls.size(); ++K) {
      if (P.Decls[K]->kind() != Decl::Kind::Let)
        continue;
      // Full-inference ground truth for "first K decls + decl K".
      Program Slice;
      for (unsigned I = 0; I <= K; ++I)
        Slice.Decls.push_back(P.Decls[I]->clone());
      bool Expected = typecheckProgram(Slice).ok();

      auto CP = InferenceCheckpoint::create(P, K);
      if (!CP) {
        // The prefix itself fails; create() must refuse exactly then.
        Program Prefix;
        for (unsigned I = 0; I < K; ++I)
          Prefix.Decls.push_back(P.Decls[I]->clone());
        EXPECT_FALSE(typecheckProgram(Prefix).ok()) << Src;
        continue;
      }
      // Ask three times: rollback must keep the verdict stable.
      for (int Round = 0; Round < 3; ++Round)
        EXPECT_EQ(CP->checkDecl(*P.Decls[K]).ok(), Expected)
            << Src << "\nprefix " << K << " round " << Round;
    }
  }
}

TEST(CheckpointTest, ValueRestrictionStateRollsBack) {
  // `r : '_a list ref` is weakly polymorphic; checking `r := [1]` pins
  // '_a to int *within that query*. Rollback must unpin it, or the
  // subsequent string assignment would wrongly fail.
  Program P = parse("let r = ref []\nlet u = r := [1]");
  auto CP = InferenceCheckpoint::create(P, 1);
  ASSERT_NE(CP, nullptr);
  Program IntUse = parse("let u = r := [1]");
  Program StrUse = parse("let v = r := [\"s\"]");
  EXPECT_TRUE(CP->checkDecl(*IntUse.Decls[0]).ok());
  EXPECT_TRUE(CP->checkDecl(*StrUse.Decls[0]).ok())
      << "int pin leaked through the checkpoint";
  EXPECT_TRUE(CP->checkDecl(*IntUse.Decls[0]).ok());
  // Both at once genuinely conflict; the checkpoint must still say no.
  Program Both = parse("let w = (r := [1]; r := [\"s\"])");
  EXPECT_FALSE(CP->checkDecl(*Both.Decls[0]).ok());
  EXPECT_TRUE(CP->checkDecl(*StrUse.Decls[0]).ok());
}

TEST(CheckpointTest, GeneralizationSurvivesFailedQueries) {
  // A failing query must not corrupt the polymorphism of prefix bindings.
  Program P = parse("let id x = x\nlet a = id 1");
  auto CP = InferenceCheckpoint::create(P, 1);
  ASSERT_NE(CP, nullptr);
  Program Bad = parse("let c = id 1 ^ \"x\"");
  Program IntUse = parse("let a = id 1 + 2");
  Program StrUse = parse("let b = id \"s\" ^ \"t\"");
  EXPECT_FALSE(CP->checkDecl(*Bad.Decls[0]).ok());
  EXPECT_TRUE(CP->checkDecl(*IntUse.Decls[0]).ok());
  EXPECT_TRUE(CP->checkDecl(*StrUse.Decls[0]).ok());
}

TEST(CheckpointTest, ArenaDoesNotGrowAcrossQueries) {
  Program P = parse("let f x y = x + y\nlet z = f 1");
  auto CP = InferenceCheckpoint::create(P, 1);
  ASSERT_NE(CP, nullptr);
  TypecheckResult First = CP->checkDecl(*P.Decls[1]);
  for (int I = 0; I < 100; ++I) {
    TypecheckResult R = CP->checkDecl(*P.Decls[1]);
    EXPECT_EQ(R.TypesAllocated, First.TypesAllocated)
        << "arena rewind is leaking allocations (round " << I << ")";
  }
}

TEST(CheckpointTest, QueryNodeTypeMatchesFullInference) {
  Program P = parse("let one = 1\nlet f x = x + one");
  const Expr *Node = P.Decls[1]->Rhs.get();
  TypecheckOptions Opts;
  Opts.QueryNode = Node;
  TypecheckResult Full = typecheckProgram(P, Opts);
  ASSERT_TRUE(Full.ok());
  ASSERT_TRUE(Full.QueriedType.has_value());

  auto CP = InferenceCheckpoint::create(P, 1);
  ASSERT_NE(CP, nullptr);
  TypecheckResult Inc = CP->checkDecl(*P.Decls[1], Opts);
  ASSERT_TRUE(Inc.ok());
  EXPECT_EQ(Inc.QueriedType, Full.QueriedType);
}

//===----------------------------------------------------------------------===//
// CheckpointedOracle: accounting
//===----------------------------------------------------------------------===//

TEST(CheckpointedOracleTest, CacheHitsKeepLogicalCallsButSkipInference) {
  Program P = parse("let a = 1\nlet b = a + true");
  CheckpointedOracle O;
  O.seedPrefix(P, 1);
  bool First = O.typechecks(P);
  for (int I = 0; I < 3; ++I)
    EXPECT_EQ(O.typechecks(P), First);
  EXPECT_EQ(O.logicalCalls(), 4u);
  EXPECT_EQ(O.counters().CacheHits, 3u);
  EXPECT_EQ(O.counters().CacheMisses, 1u);
  EXPECT_EQ(O.inferenceRuns(), 1u);
  O.clearPrefix();
  // Cache is keyed on the seed; clearing forgets the verdicts.
  O.typechecks(P);
  EXPECT_EQ(O.counters().CacheHits, 3u);
}

TEST(CheckpointedOracleTest, UnseededFallsBackToFullInference) {
  // Two declarations with no growth history match neither the seed nor
  // the growing-prefix pattern: a plain full inference.
  Program P = parse("let a = 1\nlet x = a + \"two\"");
  CheckpointedOracle O;
  EXPECT_FALSE(O.typechecks(P));
  EXPECT_EQ(O.counters().FullInferences, 1u);
  EXPECT_EQ(O.counters().IncrementalInferences, 0u);
  EXPECT_EQ(O.inferenceRuns(), O.logicalCalls());
}

TEST(CheckpointedOracleTest, LocalizationPatternIsServedIncrementally) {
  // The searcher's prefix-localization loop: one working program, one
  // declaration appended per round, announced by beginPrefixWalk(). Every
  // round should extend the growth environment instead of running
  // whole-program inference.
  Program P = parse("let a = 1\nlet b = a + 1\nlet c = b + 2\n"
                    "let d = c ^ \"s\"");
  CheckpointedOracle O;
  Program Work;
  O.beginPrefixWalk(Work);
  for (unsigned Len = 1; Len <= P.Decls.size(); ++Len) {
    Work.Decls.push_back(P.Decls[Len - 1]->clone());
    Program Truth;
    for (unsigned I = 0; I < Len; ++I)
      Truth.Decls.push_back(P.Decls[I]->clone());
    EXPECT_EQ(O.typechecks(Work), caml::typecheckProgram(Truth).ok())
        << "prefix length " << Len;
  }
  EXPECT_EQ(O.counters().FullInferences, 0u);
  EXPECT_EQ(O.counters().IncrementalInferences, P.Decls.size());
  // Each round re-checked only the new declaration: 0+1+2+3 skipped.
  EXPECT_EQ(O.counters().DeclInferencesSaved, 0u + 1u + 2u + 3u);
  // Seeding the walked object ends the walk; the seeded probe is served
  // incrementally from the seed checkpoint.
  O.seedPrefix(Work, 3);
  EXPECT_EQ(O.counters().CheckpointSeeds, 1u);
  EXPECT_FALSE(O.typechecks(Work));
  EXPECT_EQ(O.counters().FullInferences, 0u);
  EXPECT_EQ(O.counters().IncrementalInferences, P.Decls.size() + 1);
}

TEST(CheckpointedOracleTest, UnhintedCallersGetFullInferenceAndExactVerdicts) {
  // Programs are parsed, probed and freed round after round, so Program
  // and declaration addresses get reused. Each round first runs hinted
  // walks (a whole search, then a bare walk ended by clearPrefix or
  // conventionalError) and then probes prefixes of two programs as fresh
  // objects, the unhinted shape: each prefix of one program is followed
  // by the other's prefix one declaration longer, which a length-only
  // growth check would take for the next step of a walk. Nothing a hinted
  // walk leaves behind may serve those probes: each multi-declaration
  // probe runs full inference and agrees with the plain oracle. The
  // session-retention oracle additionally holds a retained prefix the
  // probes share.
  const char *Sources[] = {
      "let base = 1\nlet inc x = x + base\ntype t = A | B of int\n"
      "let f v = match v with A -> 0 | B n -> inc n\nlet bad = f 1\n",
      "let base = 1\nlet inc x = x + base\ntype t = A | B of int\n"
      "let g = inc 2\nlet h = g + 1\n",
      "let base = 1\nlet inc x = x + base\ntype t = A | B of nosuch\n"
      "let k = 3\n",
      "let base = 1\nlet inc x = x ^ \"s\"\nlet m = inc base\n",
  };
  const unsigned NumSources = sizeof(Sources) / sizeof(Sources[0]);
  CamlOracle Ref;
  CheckpointedOracle Plain;
  CheckpointedOracle Session;
  Session.setSessionRetention(true);
  for (unsigned Round = 0; Round < 24; ++Round) {
    const char *Walked = Sources[Round % NumSources];
    const char *Probed =
        Sources[(Round + 1 + (Round / NumSources) % (NumSources - 1)) %
                NumSources];
    const Program WalkedWhole = parse(Walked);
    for (CheckpointedOracle *O : {&Plain, &Session}) {
      {
        auto W = std::make_unique<Program>(parse(Walked));
        O->primeConventional(Walked);
        runSeminalWithOracle(*O, *W, SeminalOptions());
      }
      {
        auto W = std::make_unique<Program>();
        O->beginPrefixWalk(*W);
        for (const DeclPtr &D : WalkedWhole.Decls) {
          W->Decls.push_back(D->clone());
          bool Ok = O->typechecks(*W);
          EXPECT_EQ(Ok, Ref.typechecks(*W)) << Walked;
          if (!Ok)
            break;
        }
        if (Round % 2)
          O->clearPrefix();
        else
          O->conventionalError(parse("let z = 0"));
      }
      const Program Src = parse(Probed);
      for (size_t Len = 1; Len <= Src.Decls.size(); ++Len) {
        for (auto [From, L] : {std::pair(&Src, Len),
                               std::pair(&WalkedWhole, Len + 1)}) {
          if (L > From->Decls.size())
            continue;
          auto Prefix = std::make_unique<Program>();
          for (size_t I = 0; I < L; ++I)
            Prefix->Decls.push_back(From->Decls[I]->clone());
          const uint64_t FullBefore = O->counters().FullInferences;
          EXPECT_EQ(O->typechecks(*Prefix), Ref.typechecks(*Prefix))
              << "round " << Round << ":\n" << printProgram(*Prefix);
          // The walked program as a whole may be answered by the memo of
          // its own conventionalError() verdict.
          if (L > 1 && !Prefix->equals(WalkedWhole))
            EXPECT_EQ(O->counters().FullInferences, FullBefore + 1)
                << "round " << Round << ":\n" << printProgram(*Prefix);
        }
      }
    }
  }
}

TEST(CheckpointedOracleTest, HintedWalkIsLinearOnALargeProgram) {
  // Copies of the five assignment templates until the program has at
  // least 2,000 declarations, then one failing declaration. The hinted
  // walk must infer each declaration once, incrementally, and never the
  // whole program.
  Program P;
  while (P.Decls.size() < 2000)
    for (const AssignmentTemplate &A : assignmentTemplates())
      for (DeclPtr &D : parse(A.Source).Decls)
        P.Decls.push_back(std::move(D));
  P.Decls.push_back(std::move(parse("let broken = 1 + \"two\"").Decls[0]));
  const size_t N = P.Decls.size();

  // The checker aborts at the first error, so one whole-program run pins
  // every prefix verdict: prefixes through the failure's predecessor
  // pass and the rest fail. Sampled prefixes confirm it directly.
  TypecheckResult Whole = typecheckProgram(P);
  ASSERT_FALSE(Whole.ok());
  ASSERT_TRUE(Whole.ErrorDeclIndex.has_value());
  const size_t FirstFailing = *Whole.ErrorDeclIndex;
  ASSERT_EQ(FirstFailing, N - 1);

  CheckpointedOracle O;
  Program Work;
  O.beginPrefixWalk(Work);
  for (size_t Len = 1; Len <= N; ++Len) {
    Work.Decls.push_back(P.Decls[Len - 1]->clone());
    const bool Verdict = O.typechecks(Work);
    ASSERT_EQ(Verdict, Len - 1 < FirstFailing) << "prefix length " << Len;
    if (Len % 250 == 0 || Len + 1 >= N)
      ASSERT_EQ(Verdict, typecheckProgram(Work).ok())
          << "prefix length " << Len;
  }
  EXPECT_EQ(O.counters().FullInferences, 0u);
  EXPECT_EQ(O.counters().IncrementalInferences, N);
  EXPECT_EQ(O.logicalCalls(), N);
}

TEST(CheckpointTest, ExtendWithCommitsOnSuccessAndRollsBackOnFailure) {
  Program P = parse("let a = 1\nlet b = a + 1\nlet c = b ^ \"s\"\n"
                    "let d = a + 2");
  auto CP = InferenceCheckpoint::create(P, 0);
  ASSERT_TRUE(CP);
  // Committing declarations one at a time tracks full-inference prefix
  // verdicts exactly.
  ASSERT_TRUE(CP->extendWith(*P.Decls[0]));
  EXPECT_EQ(CP->prefixLength(), 1u);
  size_t Allocated = 0;
  ASSERT_TRUE(CP->extendWith(*P.Decls[1], &Allocated));
  EXPECT_GT(Allocated, 0u);
  EXPECT_EQ(CP->prefixLength(), 2u);
  // A failed Let rolls back completely: the prefix is unchanged and the
  // checkpoint keeps answering queries correctly.
  EXPECT_FALSE(CP->extendWith(*P.Decls[2]));
  EXPECT_EQ(CP->prefixLength(), 2u);
  TypecheckResult R = CP->checkDecl(*P.Decls[3]);
  EXPECT_TRUE(R.ok());
  EXPECT_FALSE(CP->checkDecl(*P.Decls[2]).ok());
  // And the environment can still grow past the failure.
  ASSERT_TRUE(CP->extendWith(*P.Decls[3]));
  EXPECT_EQ(CP->prefixLength(), 3u);
}

TEST(CheckpointedOracleTest, VerdictsMatchPlainOracleEverywhere) {
  for (const char *Src : ScenarioSources) {
    Program P = parse(Src);
    CamlOracle Plain;
    CheckpointedOracle Fast;
    if (P.Decls.size() > 1)
      Fast.seedPrefix(P, unsigned(P.Decls.size() - 1));
    EXPECT_EQ(Fast.typechecks(P), Plain.typechecks(P)) << Src;
  }
}

//===----------------------------------------------------------------------===//
// Whole-search equivalence across acceleration configurations
//===----------------------------------------------------------------------===//

struct AccelConfig {
  const char *Name;
  bool Checkpoint, VerdictCache;
};

const AccelConfig Configs[] = {
    {"layers-off", false, false},
    {"checkpoint-only", true, false},
    {"cache-only", false, true},
    {"checkpoint+cache", true, true},
};

TEST(AccelEquivalenceTest, AllConfigsReproduceTheUnacceleratedSearch) {
  for (const char *Src : ScenarioSources) {
    SeminalReport Base = plainReferenceOnSource(Src);
    std::string BaseFp = fingerprint(Base);
    EXPECT_EQ(Base.InferenceRuns, Base.OracleCalls) << Src;

    for (const AccelConfig &C : Configs) {
      SeminalReport R =
          runSeminalOnSource(Src, withAccel(C.Checkpoint, C.VerdictCache));
      EXPECT_EQ(fingerprint(R), BaseFp) << C.Name << " on:\n" << Src;
      EXPECT_EQ(R.OracleCalls, Base.OracleCalls)
          << C.Name << " changed the logical-call count on:\n" << Src;
      EXPECT_LE(R.InferenceRuns, R.OracleCalls) << C.Name;
      if (C.VerdictCache || C.Checkpoint) {
        EXPECT_LE(R.InferenceRuns, Base.InferenceRuns) << C.Name;
      }
    }
  }
}

TEST(AccelEquivalenceTest, DefaultConfigDoesStrictlyLessInference) {
  // On a triage-heavy search (wildcard placements are revisited across
  // phases) the checkpoint+cache default must actually save work, not
  // merely tie: cache hits make InferenceRuns < OracleCalls.
  SeminalReport R = runSeminalOnSource("let go y =\n"
                                       "  let x = 3 + true in\n"
                                       "  let z = y + 1 in\n"
                                       "  let w = 4 + \"hi\" in\n"
                                       "  z\n");
  EXPECT_GT(R.OracleCalls, 0u);
  EXPECT_LT(R.InferenceRuns, R.OracleCalls);
  EXPECT_GT(R.Accel.CacheHits, 0u);
  EXPECT_GT(R.Accel.IncrementalInferences, 0u);

  // And on a deep-prefix program the checkpoint skips prefix re-checks.
  SeminalReport R2 = runSeminalOnSource(
      "let a = 1\nlet b = a + 1\nlet c = b + 1\nlet d = c + true\n");
  EXPECT_GT(R2.Accel.DeclInferencesSaved, 0u);
}

} // namespace
