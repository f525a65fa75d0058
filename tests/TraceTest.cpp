//===- TraceTest.cpp - Tests for the search-trace subsystem ---------------==//
//
// The trace subsystem's two contracts (DESIGN.md section 8):
//
//   1. Observational purity: attaching a TraceSink changes nothing
//      about the search -- suggestions, logical-call counts, and
//      ranking are byte-identical with tracing on or off.
//   2. Completeness: every logical oracle call is one OracleCall span
//      carrying layer / verdict / cache_hit attributes.
//
// Plus exporter well-formedness (Chrome trace JSON, JSONL) and the
// mechanics the instrumentation relies on (parenting, layer scopes,
// disabled-span inertness).
//
//===----------------------------------------------------------------------==//

#include "JsonTestUtil.h"
#include "core/Seminal.h"
#include "minicaml/Printer.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <sstream>

using namespace seminal;

namespace {

/// The Figure 2 program: deep enough to exercise localization, decl
/// changes, adaptation, constructive candidates, and type queries.
const char *Fig2 =
    "let map2 f aList bList =\n"
    "  List.map (fun (a, b) -> f a b) (List.combine aList bList)\n"
    "let lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]\n"
    "let ans = List.filter (fun x -> x == 0) lst\n";

/// Two independent errors: forces triage.
const char *TwoErrors = "let go y =\n"
                        "  let a = 3 + true in\n"
                        "  let b = 4 + \"hi\" in\n"
                        "  y + 1";

std::string suggestionDigest(const SeminalReport &R) {
  std::string Out;
  for (const Suggestion &S : R.Suggestions) {
    Out += std::to_string(int(S.Kind)) + "/" + S.Path.str() + "/";
    if (S.Original)
      Out += caml::printExpr(*S.Original);
    Out += "=>";
    if (S.Replacement)
      Out += caml::printExpr(*S.Replacement);
    Out += "/" + S.Description + "/" + S.ContextAfter + "/" +
           (S.ReplacementType ? *S.ReplacementType : "<none>") + ";";
  }
  return Out;
}

const TraceAttr *findAttr(const TraceEvent &E, const char *Key) {
  for (const TraceAttr &A : E.Attrs)
    if (A.Key == Key)
      return &A;
  return nullptr;
}

SeminalOptions tracedOptions(TraceSink *Sink) {
  SeminalOptions Opts;
  Opts.Search.Trace = Sink;
  return Opts;
}

/// The series addTraceSeries() derives from \p Sink's events.
TraceSeries seriesOf(const TraceSink &Sink) {
  TraceSeries Series;
  addTraceSeries(Sink.snapshot(), Series);
  return Series;
}

} // namespace

//===----------------------------------------------------------------------===//
// Contract 1: tracing is observational only
//===----------------------------------------------------------------------===//

TEST(TracePurityTest, SuggestionsIdenticalWithTracingOnAndOff) {
  for (const char *Source : {Fig2, TwoErrors}) {
    SeminalReport Plain = runSeminalOnSource(Source);

    TraceSink Sink;
    SeminalReport Traced = runSeminalOnSource(Source, tracedOptions(&Sink));

    EXPECT_EQ(suggestionDigest(Plain), suggestionDigest(Traced));
    EXPECT_EQ(Plain.OracleCalls, Traced.OracleCalls);
    EXPECT_EQ(Plain.InferenceRuns, Traced.InferenceRuns);
    EXPECT_EQ(Plain.bestMessage(), Traced.bestMessage());
    EXPECT_GT(Sink.eventCount(), 0u);
  }
}

//===----------------------------------------------------------------------===//
// Contract 2: one OracleCall span per logical call, fully attributed
//===----------------------------------------------------------------------===//

TEST(TraceCompletenessTest, OneOracleCallSpanPerLogicalCall) {
  TraceSink Sink;
  SeminalReport R = runSeminalOnSource(Fig2, tracedOptions(&Sink));

  uint64_t OracleSpans = 0;
  for (const TraceEvent &E : Sink.snapshot())
    if (E.Kind == SpanKind::OracleCall)
      ++OracleSpans;
  EXPECT_EQ(OracleSpans, R.OracleCalls);
}

TEST(TraceCompletenessTest, EveryOracleSpanCarriesLayerVerdictCacheHit) {
  TraceSink Sink;
  runSeminalOnSource(TwoErrors, tracedOptions(&Sink));

  size_t Checked = 0;
  for (const TraceEvent &E : Sink.snapshot()) {
    if (E.Kind != SpanKind::OracleCall)
      continue;
    ++Checked;
    const TraceAttr *Layer = findAttr(E, "layer");
    ASSERT_NE(Layer, nullptr) << E.Name;
    EXPECT_EQ(Layer->T, TraceAttr::Type::String);
    EXPECT_FALSE(Layer->Str.empty());
    EXPECT_NE(Layer->Str, "unattributed")
        << "oracle call from an unlabeled search site";
    const TraceAttr *Verdict = findAttr(E, "verdict");
    ASSERT_NE(Verdict, nullptr);
    EXPECT_EQ(Verdict->T, TraceAttr::Type::Bool);
    const TraceAttr *CacheHit = findAttr(E, "cache_hit");
    ASSERT_NE(CacheHit, nullptr);
    EXPECT_EQ(CacheHit->T, TraceAttr::Type::Bool);
    const TraceAttr *ServedBy = findAttr(E, "served_by");
    ASSERT_NE(ServedBy, nullptr);
    EXPECT_FALSE(ServedBy->Str.empty());
  }
  EXPECT_GT(Checked, 0u);
}

TEST(TraceCompletenessTest, TriageRunEmitsTriageSpansAndLayers) {
  TraceSink Sink;
  runSeminalOnSource(TwoErrors, tracedOptions(&Sink));
  TraceSummary Sum = Sink.summarize();
  EXPECT_GT(Sum.SpansByKind["triage"], 0u);
  EXPECT_GT(Sum.SpansByKind["triage-phase"], 0u);
  EXPECT_GT(Sum.CallsByLayer["triage"], 0u);
  EXPECT_GT(Sum.CallsByLayer["localize"], 0u);
  EXPECT_GT(Sum.CallsByLayer["removal"], 0u);
}

TEST(TraceCompletenessTest, ReportSummaryMatchesEventStream) {
  TraceSink Sink;
  SeminalReport R = runSeminalOnSource(Fig2, tracedOptions(&Sink));
  ASSERT_TRUE(R.Trace.has_value());
  EXPECT_EQ(R.Trace->OracleCallSpans, R.OracleCalls);
  EXPECT_EQ(R.Trace->Spans, Sink.eventCount());
  uint64_t LayerTotal = 0;
  for (const auto &KV : R.Trace->CallsByLayer)
    LayerTotal += KV.second;
  EXPECT_EQ(LayerTotal, R.Trace->OracleCallSpans);
  EXPECT_FALSE(R.Trace->render().empty());
}

//===----------------------------------------------------------------------===//
// Span mechanics
//===----------------------------------------------------------------------===//

TEST(TraceSpanTest, DisabledSpanIsInert) {
  TraceSpan Span(nullptr, SpanKind::OracleCall, "oracle.typecheck");
  EXPECT_FALSE(Span.enabled());
  EXPECT_EQ(Span.id(), 0u);
  // None of these may crash or allocate sink state.
  Span.attr("layer", "x");
  Span.attr("n", int64_t(1));
  Span.attr("flag", true);
  Span.attr("d", 2.0);
  Span.setParent(42);
  Span.finish();
}

TEST(TraceSpanTest, NestingParentsAutomatically) {
  TraceSink Sink;
  {
    TraceSpan Outer(&Sink, SpanKind::Search, "outer");
    {
      TraceSpan Inner(&Sink, SpanKind::NodeVisit, "inner");
      EXPECT_NE(Inner.id(), Outer.id());
    }
  }
  auto Events = Sink.snapshot();
  ASSERT_EQ(Events.size(), 2u);
  // Events record at finish: inner first.
  EXPECT_EQ(Events[0].Name, "inner");
  EXPECT_EQ(Events[0].Parent, Events[1].Id);
  EXPECT_EQ(Events[1].Parent, 0u);
  EXPECT_LE(Events[1].StartNs, Events[0].StartNs);
}

TEST(TraceSpanTest, ExplicitParentOverridesStack) {
  TraceSink Sink;
  uint64_t OuterId;
  {
    TraceSpan Outer(&Sink, SpanKind::Other, "outer");
    OuterId = Outer.id();
    TraceSpan Item(&Sink, SpanKind::OracleCall, "item");
    Item.setParent(OuterId);
  }
  auto Events = Sink.snapshot();
  ASSERT_EQ(Events.size(), 2u);
  EXPECT_EQ(Events[0].Parent, OuterId);
}

TEST(TraceSpanTest, ParentIdsResolveWithinStream) {
  TraceSink Sink;
  runSeminalOnSource(TwoErrors, tracedOptions(&Sink));
  auto Events = Sink.snapshot();
  std::set<uint64_t> Ids;
  for (const TraceEvent &E : Events)
    Ids.insert(E.Id);
  size_t Roots = 0;
  for (const TraceEvent &E : Events) {
    if (E.Parent == 0) {
      ++Roots;
      continue;
    }
    EXPECT_TRUE(Ids.count(E.Parent))
        << "span " << E.Id << " (" << E.Name << ") has dangling parent "
        << E.Parent;
  }
  EXPECT_GE(Roots, 1u);
}

TEST(TraceSpanTest, SequenceNumbersAreStrictlyIncreasing) {
  TraceSink Sink;
  runSeminalOnSource(Fig2, tracedOptions(&Sink));
  auto Events = Sink.snapshot();
  for (size_t I = 1; I < Events.size(); ++I)
    EXPECT_LT(Events[I - 1].Seq, Events[I].Seq);
}

TEST(TraceLayerScopeTest, NestsAndRestores) {
  EXPECT_STREQ(traceCurrentLayer(), "unattributed");
  {
    TraceLayerScope A("localize");
    EXPECT_STREQ(traceCurrentLayer(), "localize");
    {
      TraceLayerScope B("triage");
      EXPECT_STREQ(traceCurrentLayer(), "triage");
    }
    EXPECT_STREQ(traceCurrentLayer(), "localize");
  }
  EXPECT_STREQ(traceCurrentLayer(), "unattributed");
}

TEST(TraceSinkTest, ClearDropsEventsButKeepsIdsFresh) {
  TraceSink Sink;
  { TraceSpan S(&Sink, SpanKind::Other, "a"); }
  uint64_t FirstId = Sink.snapshot()[0].Id;
  Sink.clear();
  EXPECT_EQ(Sink.eventCount(), 0u);
  { TraceSpan S(&Sink, SpanKind::Other, "b"); }
  EXPECT_GT(Sink.snapshot()[0].Id, FirstId);
}

//===----------------------------------------------------------------------===//
// Exporters
//===----------------------------------------------------------------------===//

TEST(TraceExportTest, ChromeTraceIsValidJsonWithExpectedShape) {
  TraceSink Sink;
  runSeminalOnSource(Fig2, tracedOptions(&Sink));

  std::ostringstream OS;
  Sink.writeChromeTrace(OS);
  std::string Out = OS.str();

  JsonValidator V(Out);
  EXPECT_TRUE(V.valid()) << Out.substr(0, 400);
  EXPECT_NE(Out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Out.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Out.find("\"oracle-call\""), std::string::npos);
  EXPECT_NE(Out.find("\"layer\""), std::string::npos);
  EXPECT_NE(Out.find("\"cache_hit\""), std::string::npos);
}

TEST(TraceExportTest, ChromeTraceEscapesAttributeStrings) {
  TraceSink Sink;
  {
    TraceSpan S(&Sink, SpanKind::Other, "escape");
    S.attr("payload", std::string("quote\" backslash\\ newline\n tab\t"));
  }
  std::ostringstream OS;
  Sink.writeChromeTrace(OS);
  JsonValidator V(OS.str());
  EXPECT_TRUE(V.valid()) << OS.str();
}

TEST(TraceExportTest, JsonlEveryLineIsValidJson) {
  TraceSink Sink;
  runSeminalOnSource(TwoErrors, tracedOptions(&Sink));

  std::ostringstream OS;
  Sink.writeJsonl(OS);
  std::istringstream In(OS.str());
  std::string Line;
  size_t Lines = 0;
  while (std::getline(In, Line)) {
    ++Lines;
    JsonValidator V(Line);
    EXPECT_TRUE(V.valid()) << "line " << Lines << ": " << Line;
  }
  EXPECT_EQ(Lines, Sink.eventCount());
}

TEST(TraceExportTest, EmptySinkExportsAreValid) {
  TraceSink Sink;
  std::ostringstream Chrome, Jsonl;
  Sink.writeChromeTrace(Chrome);
  Sink.writeJsonl(Jsonl);
  JsonValidator V(Chrome.str());
  EXPECT_TRUE(V.valid());
  EXPECT_TRUE(Jsonl.str().empty());
}

//===----------------------------------------------------------------------===//
// Series derived from the trace (seminal_cli --metrics)
//===----------------------------------------------------------------------===//

TEST(TraceMetricsTest, SearchPopulatesWellKnownSeries) {
  TraceSink Sink;
  runSeminalOnSource(Fig2, tracedOptions(&Sink));
  TraceSeries Series = seriesOf(Sink);
  Samples &Lat = Series["oracle.latency_us"];
  EXPECT_GT(Lat.size(), 0u);
  EXPECT_GT(Series["search.candidates_per_node"].size(), 0u);
  EXPECT_GE(Lat.percentile(0.95), Lat.percentile(0.50));
  EXPECT_GE(Lat.max(), Lat.percentile(0.95));
  std::string Table = renderTraceSeries(Series);
  EXPECT_NE(Table.find("oracle.latency_us"), std::string::npos) << Table;
}

TEST(TraceMetricsTest, TriageRunObservesRemovalCounts) {
  TraceSink Sink;
  runSeminalOnSource(TwoErrors, tracedOptions(&Sink));
  TraceSeries Series = seriesOf(Sink);
  EXPECT_GT(Series["triage.sibling_removals"].size(), 0u);
}

TEST(TraceMetricsTest, SeriesAgreeExactlyWithTheOracleCounters) {
  // The trace is the series' only store: one latency sample per logical
  // call, and one reuse-depth sample per incremental inference whose
  // depths sum to the prefix re-checks the checkpoint saved.
  for (const char *Source : {Fig2, TwoErrors}) {
    TraceSink Sink;
    SeminalReport R = runSeminalOnSource(Source, tracedOptions(&Sink));
    TraceSeries Series = seriesOf(Sink);
    EXPECT_EQ(Series["oracle.latency_us"].size(), R.OracleCalls) << Source;
    const Samples &Depth = Series["oracle.checkpoint_reuse_depth"];
    EXPECT_EQ(Depth.size(), R.Accel.IncrementalInferences) << Source;
    double DepthSum = 0;
    for (double V : Depth.values())
      DepthSum += V;
    EXPECT_EQ(DepthSum, double(R.Accel.DeclInferencesSaved)) << Source;
  }
}
