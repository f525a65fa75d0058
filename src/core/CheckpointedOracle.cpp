//===- CheckpointedOracle.cpp - Accelerated type-check oracle --------------==//

#include "core/CheckpointedOracle.h"

using namespace seminal;
using namespace seminal::caml;

CheckpointedOracle::CheckpointedOracle(std::shared_ptr<AstArena> Arena)
    : TheArena(std::move(Arena)) {
  if (!TheArena)
    TheArena = std::make_shared<AstArena>();
}

void CheckpointedOracle::syncArenaStats() {
  const AstArena::Stats &S = TheArena->stats();
  Counters.ArenaNodes = S.Nodes;
  Counters.ArenaHits = S.Hits;
  Counters.ArenaBytes = S.Bytes;
}

CheckpointedOracle::~CheckpointedOracle() = default;

void CheckpointedOracle::setSessionRetention(bool Enabled) {
  SessionRetention = Enabled;
  if (!SessionRetention)
    resetSession();
}

void CheckpointedOracle::primeConventional(std::string Source) {
  CurrentSource = std::move(Source);
  HaveCurrentSource = true;
}

void CheckpointedOracle::resetSession() {
  Retained = RetainedSeed();
  SessionConv = RetainedConv();
  CurrentSource.clear();
  HaveCurrentSource = false;
  SeedPrefixIds.clear();
  endWalk();
  ConvClone = Program();
  ConvOk = false;
  ConvPassing.reset();
  ConvGrowth.reset();
}

bool CheckpointedOracle::convMemoApplies(const Program &Prog) const {
  const RetainedConv &M = SessionConv;
  // PrefixEnd == 0 means the memoized program carried no usable spans;
  // never match on it (an empty byte prefix would match everything).
  if (M.PrefixEnd == 0 || CurrentSource.size() < M.PrefixEnd ||
      Prog.Decls.size() <= M.ErrIdx)
    return false;
  if (CurrentSource.compare(0, M.PrefixEnd, M.Source, 0, M.PrefixEnd) != 0)
    return false;
  // Identical bytes up to the start of the declaration after the failure
  // mean the error region re-lexed identically; the parse of its last
  // declaration could still differ through lookahead into the changed
  // suffix, so confirm span + structure. Equal spans over equal bytes
  // pin the inner spans too, making the replayed diagnostic
  // bit-identical to a fresh inference run.
  for (unsigned I = 0; I <= M.ErrIdx; ++I) {
    const Decl &A = *Prog.Decls[I];
    const Decl &B = *M.Clones[I];
    if (A.Span.Begin.Offset != B.Span.Begin.Offset ||
        A.Span.EndOffset != B.Span.EndOffset || !A.equals(B))
      return false;
  }
  return true;
}

TypecheckResult CheckpointedOracle::conventionalPass(const Program &Prog) {
  // Declarations are checked in order and the checker aborts at the first
  // error, so committing them one at a time to a checkpoint of the bare
  // standard library reports exactly typecheckProgram()'s diagnostic --
  // and leaves behind the environment of the passing prefix, which the
  // localization walk would otherwise rebuild probe by probe.
  TypecheckResult R;
  ConvGrowth = InferenceCheckpoint::create(Prog, 0);
  for (unsigned I = 0; I < Prog.Decls.size(); ++I) {
    if (ConvGrowth->extendWith(*Prog.Decls[I], &R.Error))
      continue;
    R.ErrorDeclIndex = I;
    if (Prog.Decls[I]->kind() != Decl::Kind::Let)
      // A failed type/exception declaration may leave partial constructor
      // table entries behind; the environment can no longer be trusted.
      ConvGrowth.reset();
    return R;
  }
  ConvGrowth.reset(); // A well-typed program has no failing let to seed.
  return R;
}

std::optional<TypeError>
CheckpointedOracle::conventionalError(const Program &Prog) {
  endWalk(); // Request boundary: the previous run's walk hint expires.
  ConvPassing.reset();
  ConvReplayed = false;
  ConvGrowth.reset();
  // Session fast path: an edit past the failing declaration cannot change
  // the diagnostic (the checker aborts at the first error), so replay it.
  // It answers the localization walk as well: declarations 0..ErrIdx are
  // span- and structure-identical to the memo's, so prefixes of up to
  // ErrIdx declarations pass and the one ending at ErrIdx fails.
  if (SessionRetention && SessionConv.Valid && HaveCurrentSource &&
      convMemoApplies(Prog)) {
    ++Counters.SessionConvMemoHits;
    // The searcher's opening whole-program probe still gets its memo.
    ConvClone = Prog.clone();
    ConvOk = false;
    ConvPassing = SessionConv.ErrIdx;
    ConvReplayed = true;
    HaveCurrentSource = false;
    return SessionConv.Error;
  }

  // Rendered once per run to show the baseline message; not search work,
  // so it stays out of the counters. The same pass also decides every
  // localization probe in advance.
  TypecheckResult R = conventionalPass(Prog);
  ConvPassing = R.ErrorDeclIndex.value_or(unsigned(Prog.Decls.size()));
  // The searcher's first oracle call asks the boolean version of this
  // exact question, and its walk replays this program: keep a copy to
  // confirm both by structure.
  ConvClone = Prog.clone();
  ConvOk = R.ok();
  // (Re)build the cross-request memo for the next edit-resubmit. Only a
  // parsed program qualifies: the byte-prefix validity check needs real
  // spans, and a synthesized next-declaration offset of 0 is rejected.
  SessionConv = RetainedConv();
  if (SessionRetention && HaveCurrentSource && R.Error && R.ErrorDeclIndex &&
      *R.ErrorDeclIndex < Prog.Decls.size()) {
    unsigned ErrIdx = *R.ErrorDeclIndex;
    size_t PrefixEnd = ErrIdx + 1 < Prog.Decls.size()
                           ? size_t(Prog.Decls[ErrIdx + 1]->Span.Begin.Offset)
                           : CurrentSource.size();
    if (PrefixEnd > 0 && PrefixEnd <= CurrentSource.size()) {
      SessionConv.Valid = true;
      SessionConv.Source = CurrentSource;
      SessionConv.PrefixEnd = PrefixEnd;
      SessionConv.ErrIdx = ErrIdx;
      SessionConv.Clones.reserve(ErrIdx + 1);
      for (unsigned I = 0; I <= ErrIdx; ++I)
        SessionConv.Clones.push_back(Prog.Decls[I]->clone());
      SessionConv.Error = R.Error;
    }
  }
  HaveCurrentSource = false;
  return R.Error;
}

void CheckpointedOracle::seedPrefix(const Program &Prog, unsigned EditedDecl) {
  // The conventional pass's environment covers the first prefixLength()
  // declarations of the program it checked; under a walk hint that
  // replays that program they are this one's first declarations too.
  // Take it before clearPrefix() ends the walk.
  std::unique_ptr<InferenceCheckpoint> Grown;
  if (WalkProg == &Prog && WalkReplaysConv)
    Grown = std::move(ConvGrowth);
  clearPrefix();
  if (EditedDecl >= Prog.Decls.size())
    return;
  Seeded = true;
  EditedIndex = EditedDecl;
  PrefixIdentity.reserve(EditedDecl);
  for (unsigned I = 0; I < EditedDecl; ++I)
    PrefixIdentity.push_back(Prog.Decls[I].get());

  // Session mode: intern the seed's identity once. The ids key this
  // request's eventual stash, and matching them against the retained ids
  // decides whether last request's caches still apply (id equality is
  // tree equality, so the comparison is EditedDecl integer compares).
  bool SessionMatch = false;
  if (SessionRetention) {
    SeedPrefixIds.clear();
    SeedPrefixIds.reserve(EditedDecl);
    for (unsigned I = 0; I < EditedDecl; ++I)
      SeedPrefixIds.push_back(TheArena->internDecl(*Prog.Decls[I]));
    SessionMatch = Retained.Valid && Retained.PrefixIds == SeedPrefixIds;
  }

  // If the pass left an environment that covers exactly this prefix,
  // adopt it -- seeding costs nothing.
  if (Grown && Grown->prefixLength() == EditedDecl) {
    Checkpoint = std::move(Grown);
    ++Counters.CheckpointSeeds;
    // The environment came from this request's pass, but last request's
    // verdicts are conditioned on this same prefix -- take them too.
    if (SessionMatch)
      adoptRetainedCaches();
    return;
  }

  // Session adoption: the previous request seeded this exact prefix and
  // its whole warm state -- environment and verdict cache -- transfers
  // wholesale. This is the edit-resubmit hot path.
  if (SessionMatch && Retained.Checkpoint &&
      Retained.Checkpoint->prefixLength() == EditedDecl) {
    Checkpoint = std::move(Retained.Checkpoint);
    ++Counters.CheckpointSeeds;
    adoptRetainedCaches();
    return;
  }

  Checkpoint = InferenceCheckpoint::create(Prog, EditedDecl);
  if (Checkpoint)
    ++Counters.CheckpointSeeds;
}

void CheckpointedOracle::adoptRetainedCaches() {
  VerdictById = std::move(Retained.Verdicts);
  Retained = RetainedSeed();
  ++Counters.SessionSeedAdoptions;
}

void CheckpointedOracle::stashSessionState() {
  Retained = RetainedSeed();
  // Only a seed with a live environment snapshot is worth keeping, and
  // only one whose identity was interned at seedPrefix (retention was on
  // when this request seeded).
  if (!Checkpoint || SeedPrefixIds.size() != EditedIndex)
    return;
  Retained.Valid = true;
  Retained.PrefixIds = std::move(SeedPrefixIds);
  Retained.Checkpoint = std::move(Checkpoint);
  for (auto &KV : VerdictById)
    KV.second |= RetainedBit;
  Retained.Verdicts = std::move(VerdictById);
}

void CheckpointedOracle::clearPrefix() {
  if (SessionRetention && Seeded)
    stashSessionState();
  Seeded = false;
  EditedIndex = 0;
  PrefixIdentity.clear();
  Checkpoint.reset();
  // Verdicts are relative to the prefix environment, so they go; the
  // arena's interned nodes stay valid across prefixes (and requests).
  VerdictById.clear();
  SeedPrefixIds.clear();
  endWalk();
  // A conventional-pass environment no seed took (e.g. the program
  // failed in a type declaration) goes with the run.
  ConvGrowth.reset();
}

void CheckpointedOracle::beginPrefixWalk(const Program &Prog,
                                         const Program &Source) {
  endWalk();
  WalkProg = &Prog;
  // The conventional pass answers this walk's probes only if it checked
  // this very program; one structural compare per walk confirms it.
  WalkReplaysConv = ConvPassing && Source.equals(ConvClone);
}

void CheckpointedOracle::endWalk() {
  WalkProg = nullptr;
  WalkReplaysConv = false;
}

bool CheckpointedOracle::tryConvPassProbe(const Program &Prog, bool &Verdict) {
  if (!WalkReplaysConv)
    return false;
  // The walk's probes are ConvClone's prefixes: those through the
  // declaration before the reported error pass, the one ending at it
  // fails, and longer ones are not this pass's to answer.
  const size_t N = Prog.Decls.size();
  if (N > *ConvPassing + 1)
    return false;
  if (ConvReplayed) {
    ++Counters.SessionPrefixHits;
    LastServedBy = "session-prefix";
  } else {
    ++Counters.CacheHits;
    LastServedBy = "conv-pass";
  }
  LastCacheHit = true;
  Verdict = N <= *ConvPassing;
  return true;
}

std::optional<unsigned> CheckpointedOracle::failingDecl(const Program &Prog) {
  // The conventional pass stopped there already.
  if (ConvPassing && Prog.equals(ConvClone))
    return *ConvPassing < Prog.Decls.size() ? ConvPassing : std::nullopt;
  return Oracle::failingDecl(Prog);
}

bool CheckpointedOracle::matchesSeed(const Program &Prog) const {
  if (!Seeded || Prog.Decls.size() != size_t(EditedIndex) + 1)
    return false;
  // The searcher edits Work in place, so the unedited prefix keeps its
  // Decl identities; pointer comparison makes the match O(prefix) with no
  // tree walk. A caller holding different (even structurally equal) prefix
  // objects simply falls back to full inference -- never wrong, only slow.
  for (unsigned I = 0; I < EditedIndex; ++I)
    if (Prog.Decls[I].get() != PrefixIdentity[I])
      return false;
  // Only Let declarations may be replayed against a checkpoint (type and
  // exception declarations mutate untrailed global tables).
  return Prog.Decls[EditedIndex]->kind() == Decl::Kind::Let;
}

TypecheckResult CheckpointedOracle::infer(const Program &Prog, bool SeedMatch,
                                          const TypecheckOptions &Opts) {
  TypecheckResult R;
  if (SeedMatch && Checkpoint) {
    ++Counters.IncrementalInferences;
    Counters.DeclInferencesSaved += Checkpoint->prefixLength();
    LastServedBy = "checkpoint-incremental";
    R = Checkpoint->checkDecl(*Prog.Decls[EditedIndex], Opts);
  } else {
    // While seeded this is a fallback: another program, or a prefix
    // that failed to snapshot.
    if (Seeded)
      ++Counters.CheckpointFallbacks;
    ++Counters.FullInferences;
    R = typecheckProgram(Prog, Opts);
  }
  Counters.TypesAllocated += R.TypesAllocated;
  return R;
}

bool CheckpointedOracle::typecheckImpl(const Program &Prog) {
  if (!matchesSeed(Prog)) {
    bool Verdict;
    // A probe of a walk that replays the conventional program. This comes
    // before the memo below, which would otherwise take the walk's last
    // probe when the last declaration fails.
    if (&Prog == WalkProg && tryConvPassProbe(Prog, Verdict))
      return Verdict;
    // Asked about the same program conventionalError() just inferred?
    // (The searcher's opening "does the input type-check at all" probe,
    // and the final localization round when the last declaration fails.)
    if (ConvPassing && Prog.Decls.size() == ConvClone.Decls.size() &&
        Prog.equals(ConvClone)) {
      ++Counters.CacheHits;
      LastServedBy = "conv-memo";
      LastCacheHit = true;
      return ConvOk;
    }
    return infer(Prog, false).ok();
  }

  // Interning reuses existing nodes (near-zero allocation on repeats)
  // and the resulting id *is* the structural identity, so the probe is
  // one integer lookup.
  AstArena::DeclId Id = TheArena->internDecl(*Prog.Decls[EditedIndex]);
  syncArenaStats();
  auto Known = VerdictById.find(Id);
  if (Known != VerdictById.end()) {
    ++Counters.CacheHits;
    if (Known->second & RetainedBit)
      ++Counters.SessionVerdictReuses;
    LastServedBy = "verdict-cache";
    LastCacheHit = true;
    return (Known->second & VerdictBit) != 0;
  }
  ++Counters.CacheMisses;
  bool Verdict = infer(Prog, true).ok();
  VerdictById.emplace(Id, Verdict ? VerdictBit : uint8_t(0));
  syncArenaStats();
  return Verdict;
}

std::optional<std::string>
CheckpointedOracle::typeOfNodeImpl(const Program &Prog, const Expr *Node) {
  // Type queries bypass the verdict cache (it stores booleans, not types)
  // but still ride the checkpoint.
  TypecheckOptions Opts;
  Opts.QueryNode = Node;
  TypecheckResult R = infer(Prog, matchesSeed(Prog), Opts);
  if (!R.ok())
    return std::nullopt;
  return R.QueriedType;
}
