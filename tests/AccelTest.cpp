//===- AccelTest.cpp - Oracle acceleration equivalence tests ---------------==//
//
// The acceleration layer must be invisible: prefix checkpointing plus
// verdict caching has to reproduce the plain oracle's searches bit for
// bit -- same suggestions in the same ranked order, same logical-call
// totals -- while doing strictly less inference. These tests pin that
// contract at three levels: the InferenceCheckpoint primitive (rollback
// correctness), the CheckpointedOracle (cache accounting), and whole
// runSeminal searches, each compared against the plain CamlOracle
// reference (ReferenceRun.h).
//
//===----------------------------------------------------------------------===//

#include "ReferenceRun.h"

#include "core/CheckpointedOracle.h"
#include "core/Seminal.h"
#include "corpus/Generator.h"
#include "corpus/Programs.h"
#include "minicaml/Hash.h"
#include "minicaml/Parser.h"
#include "minicaml/Printer.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
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

/// A diagnostic and the declaration it was reported in, rendered.
std::string diagnostic(const std::optional<TypeError> &E,
                       std::optional<unsigned> DeclIndex) {
  std::string Out =
      "decl=" + (DeclIndex ? std::to_string(*DeclIndex) : std::string("none"));
  if (E)
    Out += " kind=" + std::to_string(int(E->TheKind)) +
           " span=" + std::to_string(E->Span.Begin.Offset) + "-" +
           std::to_string(E->Span.EndOffset) + " msg=" + E->Message +
           " actual=" + E->ActualType + " expected=" + E->ExpectedType +
           " name=" + E->Name;
  return Out;
}

/// Every field of a type-check result a caller can observe, rendered.
std::string fingerprint(const TypecheckResult &R) {
  std::string Out = diagnostic(R.Error, R.ErrorDeclIndex);
  for (const auto &[Name, Type] : R.TopLevelTypes)
    Out += "\n" + Name + " : " + Type;
  Out += "\nallocated=" + std::to_string(R.TypesAllocated);
  return Out;
}

/// Programs of several seeded corpora (printed student files, most with
/// an error in some declaration after a well-typed prefix).
std::vector<Program> corpusPrograms() {
  std::vector<Program> Out;
  for (uint64_t Seed : {7u, 11u, 20070611u}) {
    CorpusOptions Opts;
    Opts.Seed = Seed;
    Opts.Scale = 0.25;
    for (const CorpusFile &F : generateCorpus(Opts).Analyzed)
      Out.push_back(parse(F.Source));
  }
  return Out;
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
  // declaration appended per round, announced by beginPrefixWalk() after
  // the conventional check of the program it replays. That check stopped
  // at the first failing declaration, so it answers every round with no
  // inference, and seeding adopts the environment it grew.
  Program P = parse("let a = 1\nlet b = a + 1\nlet c = b + 2\n"
                    "let d = c ^ \"s\"");
  CheckpointedOracle O;
  ASSERT_TRUE(O.conventionalError(P));
  Program Work;
  O.beginPrefixWalk(Work, P);
  for (unsigned Len = 1; Len <= P.Decls.size(); ++Len) {
    Work.Decls.push_back(P.Decls[Len - 1]->clone());
    Program Truth;
    for (unsigned I = 0; I < Len; ++I)
      Truth.Decls.push_back(P.Decls[I]->clone());
    EXPECT_EQ(O.typechecks(Work), caml::typecheckProgram(Truth).ok())
        << "prefix length " << Len;
  }
  EXPECT_EQ(O.inferenceRuns(), 0u);
  EXPECT_EQ(O.counters().CacheHits, P.Decls.size());
  // Seeding the walked object ends the walk; the seeded probe is served
  // incrementally from the adopted environment of all three passing
  // declarations.
  O.seedPrefix(Work, 3);
  EXPECT_EQ(O.counters().CheckpointSeeds, 1u);
  EXPECT_FALSE(O.typechecks(Work));
  EXPECT_EQ(O.counters().FullInferences, 0u);
  EXPECT_EQ(O.counters().IncrementalInferences, 1u);
  EXPECT_EQ(O.counters().DeclInferencesSaved, 3u);
}

TEST(CheckpointedOracleTest, UnhintedCallersGetFullInferenceAndExactVerdicts) {
  // Programs are parsed, probed and freed round after round, so Program
  // and declaration addresses get reused. Each round first runs hinted
  // walks (a whole search, then a bare walk that replays the search's
  // conventional program, ended by clearPrefix or conventionalError) and
  // then probes prefixes of two programs as fresh objects, the unhinted
  // shape: each prefix of one program is followed by the other's prefix
  // one declaration longer, which a length-only check would take for the
  // next step of a walk. Nothing a hinted walk leaves behind may serve
  // those probes: each multi-declaration probe runs full inference and
  // agrees with the plain oracle. The session-retention oracle
  // additionally holds a retained prefix the probes share.
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
        O->beginPrefixWalk(*W, WalkedWhole);
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
  // least 2,000 declarations, then one failing declaration. The
  // conventional check commits each declaration once; the hinted walk
  // after it must run no inference at all, and seeding must take the
  // check's environment instead of re-inferring the prefix.
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
  ASSERT_TRUE(O.conventionalError(P));
  Program Work;
  O.beginPrefixWalk(Work, P);
  for (size_t Len = 1; Len <= N; ++Len) {
    Work.Decls.push_back(P.Decls[Len - 1]->clone());
    const bool Verdict = O.typechecks(Work);
    ASSERT_EQ(Verdict, Len - 1 < FirstFailing) << "prefix length " << Len;
    if (Len % 250 == 0 || Len + 1 >= N)
      ASSERT_EQ(Verdict, typecheckProgram(Work).ok())
          << "prefix length " << Len;
  }
  EXPECT_EQ(O.inferenceRuns(), 0u);
  EXPECT_EQ(O.counters().CacheHits, N);
  EXPECT_EQ(O.logicalCalls(), N);
  O.seedPrefix(Work, unsigned(FirstFailing));
  EXPECT_FALSE(O.typechecks(Work));
  EXPECT_EQ(O.counters().FullInferences, 0u);
  EXPECT_EQ(O.counters().IncrementalInferences, 1u);
  EXPECT_EQ(O.counters().DeclInferencesSaved, FirstFailing);
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
  ASSERT_TRUE(CP->extendWith(*P.Decls[1]));
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

TEST(CheckpointTest, SharedStdlibSignaturesAreThreadSafe) {
  // Every type-checker run converts the standard library's signatures,
  // parsed once per process, into its own arena. Eight threads check the
  // same programs at once -- the first round races the signatures'
  // first use, as nothing in this process has type-checked yet -- and
  // every result must equal a serial run's.
  auto CheckOnThreads = [](const std::vector<Program> &Progs) {
    std::vector<std::string> Serial;
    std::vector<std::vector<std::string>> PerThread(8);
    std::vector<std::thread> Threads;
    for (std::vector<std::string> &Results : PerThread)
      Threads.emplace_back([&Progs, &Results] {
        for (const Program &P : Progs)
          Results.push_back(fingerprint(typecheckProgram(P)));
      });
    for (std::thread &T : Threads)
      T.join();
    for (const Program &P : Progs)
      Serial.push_back(fingerprint(typecheckProgram(P)));
    for (const std::vector<std::string> &Results : PerThread)
      EXPECT_EQ(Results, Serial);
  };
  std::vector<Program> Handwritten;
  for (const char *Src : ScenarioSources)
    Handwritten.push_back(parse(Src));
  for (const AssignmentTemplate &A : assignmentTemplates())
    Handwritten.push_back(parse(A.Source));
  CheckOnThreads(Handwritten);
  CheckOnThreads(corpusPrograms());
}

TEST(CheckpointedOracleTest, ConventionalPassServesTheLocalizationWalk) {
  // With the checkpoint layer on, conventionalError() grows one checkpoint
  // through the program and stops at the first error. A walk that replays
  // the program must get CamlOracle's verdicts and logical calls with no
  // inference -- so its first failing probe is the pass's error
  // declaration, which with the diagnostic must equal typecheckProgram()'s
  // -- and then seed from the environment the pass left.
  std::vector<Program> Progs = corpusPrograms();
  const char *Handwritten[] = {
      // The failing declaration is the last one.
      "let a = 1\nlet f x = x + a\nlet b = f \"s\"\n",
      // A failing type declaration, then a failing exception declaration.
      "let a = 1\ntype t = A | B of nosuch\nlet b = a + 1\n",
      "let a = 1\nexception E of nosuch\nlet b = a\n",
      // A failing let after type and exception declarations.
      "type t = A | B of int\nexception E of string\n"
      "let f v = match v with A -> 0 | B n -> n\nlet g = f 1\n",
      // Well-typed programs.
      "let a = 1\nlet b = a + 1\n",
      "type t = A | B of int\nlet f v = match v with A -> 0 | B n -> n\n",
  };
  for (const char *Src : Handwritten)
    Progs.push_back(parse(Src));
  for (const char *Src : ScenarioSources)
    Progs.push_back(parse(Src));

  unsigned Walks = 0, Seeds = 0;
  for (const Program &P : Progs) {
    const std::string Text = printProgram(P);
    const TypecheckResult Truth = typecheckProgram(P);
    CheckpointedOracle O;
    const std::optional<TypeError> Conv = O.conventionalError(P);

    // The walk, probe for probe against the plain oracle.
    CamlOracle Ref;
    Program Work;
    TraceSink Sink;
    O.setInstrumentation(&Sink);
    O.beginPrefixWalk(Work, P);
    std::optional<unsigned> Failing;
    for (unsigned I = 0; I < P.Decls.size() && !Failing; ++I) {
      Work.Decls.push_back(P.Decls[I]->clone());
      const bool Ok = O.typechecks(Work);
      EXPECT_EQ(Ok, Ref.typechecks(Work)) << Text << "\nprefix " << I + 1;
      if (!Ok)
        Failing = I;
    }
    // The walk's verdicts come from the pass's error declaration.
    EXPECT_EQ(diagnostic(Conv, Failing),
              diagnostic(Truth.Error, Truth.ErrorDeclIndex))
        << Text;
    EXPECT_EQ(O.logicalCalls(), Ref.logicalCalls());
    EXPECT_EQ(O.inferenceRuns(), 0u) << Text;
    EXPECT_EQ(O.counters().CacheHits, O.logicalCalls());
    // Every probe, the last declaration's too, comes from the pass (the
    // whole-program memo must not take the failing probe).
    for (const TraceEvent &E : Sink.snapshot())
      for (const TraceAttr &A : E.Attrs) {
        if (A.Key == "served_by") {
          EXPECT_EQ(A.Str, "conv-pass") << Text;
        }
      }
    O.setInstrumentation(nullptr);
    // The slice-guided search pins the same declaration from the pass;
    // a program the pass did not check is inferred afresh.
    EXPECT_EQ(O.failingDecl(P), Truth.ErrorDeclIndex) << Text;
    EXPECT_EQ(O.failingDecl(Progs.front()),
              typecheckProgram(Progs.front()).ErrorDeclIndex)
        << Text;
    ++Walks;

    // A failing let: seeded at it, the probe is served incrementally
    // from the environment of the passing prefix.
    if (!Failing || P.Decls[*Failing]->kind() != Decl::Kind::Let)
      continue;
    O.seedPrefix(Work, *Failing);
    EXPECT_EQ(O.counters().CheckpointSeeds, 1u);
    EXPECT_FALSE(O.typechecks(Work)) << Text;
    EXPECT_EQ(O.counters().FullInferences, 0u) << Text;
    EXPECT_EQ(O.counters().IncrementalInferences, 1u) << Text;
    ++Seeds;
  }
  EXPECT_EQ(Walks, Progs.size());
  EXPECT_GT(Seeds, Progs.size() / 2);

  // A failed type declaration leaves partial constructor entries behind,
  // so the pass may not hand its environment on: seeded at the failure,
  // a let in its place must not see constructor A -- neither after the
  // pass nor over a walk it did not check, which seeds afresh.
  const Program BadType = parse("let a = 1\ntype t = A | B of nosuch\n");
  for (bool Conventional : {true, false}) {
    CheckpointedOracle O;
    if (Conventional)
      O.conventionalError(BadType);
    Program Work;
    O.beginPrefixWalk(Work, BadType);
    for (const DeclPtr &D : BadType.Decls) {
      Work.Decls.push_back(D->clone());
      if (!O.typechecks(Work))
        break;
    }
    ASSERT_EQ(Work.Decls.size(), 2u);
    O.seedPrefix(Work, 1);
    Work.Decls[1] = std::move(parse("let p = A").Decls[0]);
    EXPECT_FALSE(O.typechecks(Work)) << "conventional pass: " << Conventional;
  }

  // The pass's environment belongs to the program it checked: a walk that
  // replays another program with as long a passing prefix must seed from
  // its own, where `a` is a string.
  {
    CheckpointedOracle O;
    O.conventionalError(parse("let a = 1\nlet b = a ^ \"s\"\n"));
    const Program Walked = parse("let a = \"s\"\nlet b = a + 1\n");
    Program Work;
    O.beginPrefixWalk(Work, Walked);
    for (const DeclPtr &D : Walked.Decls) {
      Work.Decls.push_back(D->clone());
      if (!O.typechecks(Work))
        break;
    }
    ASSERT_EQ(Work.Decls.size(), 2u);
    O.seedPrefix(Work, 1);
    Work.Decls[1] = std::move(parse("let p = a ^ \"t\"").Decls[0]);
    EXPECT_TRUE(O.typechecks(Work));
  }

  // Whole searches through runSeminal, probing and slice-guided (which
  // seeds from the pass with no walk): conventional messages, ranked
  // reports and logical calls identical to the plain oracle's.
  SeminalOptions Guided;
  Guided.Search.SliceGuided = true;
  for (const SeminalOptions &Opts : {SeminalOptions(), Guided})
    for (const Program &P : Progs) {
      const std::string Text = printProgram(P);
      SeminalReport Base = plainReference(P, Opts);
      SeminalReport R = runSeminal(P, Opts);
      EXPECT_EQ(fingerprint(R), fingerprint(Base)) << Text;
      EXPECT_EQ(R.OracleCalls, Base.OracleCalls) << Text;
      EXPECT_EQ(R.SlicePrunedCalls, Base.SlicePrunedCalls) << Text;
      EXPECT_EQ(diagnostic(R.CheckerError, R.FailingDeclIndex),
                diagnostic(Base.CheckerError, Base.FailingDeclIndex))
          << Text;
    }
}

TEST(CheckpointedOracleTest, SessionWalksAreAnsweredByTheConventionalCheck) {
  // A daemon session's edit loop: a cold request, an edit past the
  // failing declaration (the conventional memo replays), an edit of the
  // failing declaration and an edit of a prefix declaration (the memo
  // misses and the pass runs). Every report must be byte-identical to a
  // one-shot plain-oracle run of the same source, and every localization
  // probe must be answered by the conventional check, fresh or replayed,
  // with no inference.
  struct Step {
    const char *Source;
    bool MemoHit;    ///< The conventional memo replays.
    bool SeedsWarm;  ///< The seed takes the previous request's verdicts.
  };
  const Step Steps[] = {
      {"let inc x = x + 1\nlet twice f y = f (f y)\n"
       "let out = twice inc true\nlet tail = 1\n",
       false, false},
      {"let inc x = x + 1\nlet twice f y = f (f y)\n"
       "let out = twice inc true\nlet tail = 2\n",
       true, true},
      {"let inc x = x + 1\nlet twice f y = f (f y)\n"
       "let out = twice inc false\nlet tail = 2\n",
       false, true},
      {"let inc x = x + 2\nlet twice f y = f (f y)\n"
       "let out = twice inc false\nlet tail = 2\n",
       false, false},
  };
  CheckpointedOracle O;
  O.setSessionRetention(true);
  for (const Step &S : Steps) {
    const Program P = parse(S.Source);
    const SeminalReport Base = plainReference(P);
    TraceSink Sink;
    SeminalOptions Opts;
    Opts.Search.Trace = &Sink;
    O.primeConventional(S.Source);
    const SeminalReport R = runSeminalWithOracle(O, P, Opts);
    EXPECT_EQ(fingerprint(R), fingerprint(Base)) << S.Source;
    EXPECT_EQ(R.OracleCalls, Base.OracleCalls) << S.Source;
    EXPECT_EQ(diagnostic(R.CheckerError, R.FailingDeclIndex),
              diagnostic(Base.CheckerError, Base.FailingDeclIndex))
        << S.Source;
    ASSERT_TRUE(R.FailingDeclIndex) << S.Source;

    EXPECT_EQ(R.Accel.SessionConvMemoHits, S.MemoHit ? 1u : 0u) << S.Source;
    EXPECT_EQ(R.Accel.SessionSeedAdoptions, S.SeedsWarm ? 1u : 0u)
        << S.Source;
    const uint64_t Probes = *R.FailingDeclIndex + 1;
    EXPECT_EQ(R.Accel.SessionPrefixHits, S.MemoHit ? Probes : 0u)
        << S.Source;
    uint64_t Walked = 0;
    for (const TraceEvent &E : Sink.snapshot()) {
      std::string Layer, ServedBy;
      for (const TraceAttr &A : E.Attrs) {
        if (A.Key == "layer")
          Layer = A.Str;
        else if (A.Key == "served_by")
          ServedBy = A.Str;
      }
      if (Layer != "localize")
        continue;
      ++Walked;
      EXPECT_EQ(ServedBy, S.MemoHit ? "session-prefix" : "conv-pass")
          << S.Source;
    }
    EXPECT_EQ(Walked, Probes) << S.Source;
  }
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
// Whole-search equivalence: the shipped oracle against the plain reference
//===----------------------------------------------------------------------===//

TEST(AccelEquivalenceTest, AllConfigsReproduceTheUnacceleratedSearch) {
  // CheckpointedOracle has one configuration (checkpoint + verdict cache);
  // CamlOracle is the only unaccelerated path.
  for (const char *Src : ScenarioSources) {
    SeminalReport Base = plainReferenceOnSource(Src);
    EXPECT_EQ(Base.InferenceRuns, Base.OracleCalls) << Src;

    SeminalReport R = runSeminalOnSource(Src);
    EXPECT_EQ(fingerprint(R), fingerprint(Base)) << "on:\n" << Src;
    EXPECT_EQ(R.OracleCalls, Base.OracleCalls)
        << "changed the logical-call count on:\n" << Src;
    EXPECT_LE(R.InferenceRuns, R.OracleCalls) << Src;
    EXPECT_LE(R.InferenceRuns, Base.InferenceRuns) << Src;
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
