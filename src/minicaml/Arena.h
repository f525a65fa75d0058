//===- Arena.h - Hash-consed AST arena --------------------------*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A hash-consing arena for mini-Caml ASTs (DESIGN.md section 11). Every
/// expression/pattern/declaration subtree interns to a canonical node id:
/// identical subtrees are stored exactly once, so id equality *is* tree
/// equality, and each node's structural hash (bit-identical to
/// minicaml/Hash's hashExpr/hashPattern/hashDecl of the materialized
/// tree) is computed once from its children's cached hashes, never by
/// walking a tree.
///
/// The accelerated oracle keys its verdict cache on declaration ids: the
/// searcher edits its working program in place, the oracle interns the
/// edited declaration (re-interning an already-seen tree allocates
/// nothing), and the lookup is one integer probe -- no rehash, no deep
/// equality, no stored clones. Suggestions capture their modified
/// program as declaration ids too, materialized only when read
/// (LazyProgram, core/Change.h).
///
/// Interned nodes are immutable and never freed, so ids remain valid for
/// the arena's lifetime -- across seedPrefix/clearPrefix cycles and, in
/// the search daemon, across requests: programs sharing subtrees
/// (the common stdlib-prelude case) share storage and verdict-cache
/// history automatically. Materialized trees carry default (unknown)
/// source spans; hashes, equality, printing, inference and evaluation are
/// all span-independent, which is what makes sharing sound.
///
/// Thread-safety: interning mutates the arena and must stay on one thread
/// (the search thread; in the daemon, the session's shard worker).
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_MINICAML_ARENA_H
#define SEMINAL_MINICAML_ARENA_H

#include "minicaml/Ast.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace seminal {
namespace caml {

class AstArena {
public:
  /// Node ids are dense indices into per-sort node tables. The invalid id
  /// doubles as "no node" for optional slots (a pattern's missing Arg).
  using ExprId = uint32_t;
  using PatternId = uint32_t;
  using DeclId = uint32_t;
  static constexpr uint32_t InvalidId = 0xFFFFFFFFu;

  // Interning -----------------------------------------------------------
  // Bottom-up, deduplicating: returns the canonical id for the subtree's
  // structure. Two trees receive the same id iff they are structurally
  // equal (same semantics as the AST equals() methods; spans ignored).
  ExprId internExpr(const Expr &E);
  PatternId internPattern(const Pattern &P);
  DeclId internDecl(const Decl &D);

  // Materialization -----------------------------------------------------
  // Fresh trees, structurally equal to what was interned (spans default).
  ExprPtr materializeExpr(ExprId Id) const;
  PatternPtr materializePattern(PatternId Id) const;
  DeclPtr materializeDecl(DeclId Id) const;

  // Node access ---------------------------------------------------------
  /// Cached structural hash; equals hashExpr/hashDecl of the
  /// materialized tree.
  uint64_t exprHash(ExprId Id) const { return ExprNodes[Id].Hash; }
  uint64_t declHash(DeclId Id) const { return DeclNodes[Id].Hash; }
  Expr::Kind exprKind(ExprId Id) const { return ExprNodes[Id].Kind; }
  /// Child ids in canonical child order (Ast.h's layout table).
  const std::vector<ExprId> &exprChildren(ExprId Id) const {
    return ExprNodes[Id].Children;
  }

  // Occupancy -----------------------------------------------------------
  struct Stats {
    uint64_t Nodes = 0; ///< Distinct nodes stored (all three sorts).
    uint64_t Hits = 0;  ///< Intern requests answered by an existing node.
    uint64_t Bytes = 0; ///< Approximate retained bytes of node storage.
  };
  const Stats &stats() const { return TheStats; }

  /// Drops every interned node and resets the occupancy stats, returning
  /// the arena to its freshly-constructed state. Every previously issued
  /// id becomes invalid -- the caller must guarantee nothing holds one
  /// (no live LazyPrograms, no id-keyed verdict caches). This is the
  /// eviction path for long-lived arenas: the search daemon clears a
  /// session's arena when retained bytes cross the session watermark
  /// (DESIGN.md section 13), after dropping the caches keyed on it.
  void clear();

private:
  /// One interned expression. Children/patterns are ids, not owned
  /// subtrees: the node is O(fanout) regardless of subtree size.
  struct ExprNode {
    Expr::Kind Kind = Expr::Kind::UnitLit;
    bool BoolValue = false;
    bool IsRec = false;
    long IntValue = 0;
    std::string StringValue;
    std::string Name;
    std::vector<std::string> FieldNames;
    PatternId Binding = InvalidId;
    std::vector<PatternId> Params;
    std::vector<PatternId> ArmPats;
    std::vector<ExprId> Children;
    uint64_t Hash = 0;
  };

  struct PatternNode {
    Pattern::Kind Kind = Pattern::Kind::Wild;
    bool BoolValue = false;
    long IntValue = 0;
    std::string Name;
    std::string StringValue;
    std::vector<PatternId> Elems;
    PatternId Head = InvalidId;
    PatternId Tail = InvalidId;
    PatternId Arg = InvalidId;
    uint64_t Hash = 0;
  };

  /// Let declarations decompose into ids; type/exception declarations
  /// (never edited by the search) keep an owned canonical clone.
  struct DeclNode {
    Decl::Kind Kind = Decl::Kind::Let;
    bool IsRec = false;
    PatternId Binding = InvalidId;
    std::vector<PatternId> Params;
    ExprId Rhs = InvalidId;
    DeclPtr Other;
    uint64_t Hash = 0;
  };

  // Shared hash routine (field-wise, so the intern walk can hash a
  // source tree plus child ids without first building a node record).
  uint64_t exprHashOf(Expr::Kind Kind, long IntValue, bool BoolValue,
                      const std::string &StringValue, const std::string &Name,
                      bool IsRec, const std::vector<std::string> &FieldNames,
                      PatternId Binding, const PatternId *Params,
                      size_t NumParams, const PatternId *ArmPats,
                      size_t NumArmPats, const ExprId *Children,
                      size_t NumChildren) const;
  bool sameDecl(const DeclNode &A, const DeclNode &B) const;

  /// Dedup-or-store for a non-Let declaration record (hash pre-set from
  /// hashDecl; the canonical clone carries the structure).
  DeclId internDeclNode(DeclNode &&N);

  // Allocation-free lookups for the hot paths. The keyed variants probe
  // the table against a source tree plus already-interned child ids; a
  // node record (with its string/vector copies) is built only on a miss,
  // i.e. only for subtrees the arena has never seen.
  PatternId internPatternKeyed(const Pattern &P, const PatternId *Elems,
                               size_t NumElems, PatternId Head,
                               PatternId Tail, PatternId Arg);
  ExprId internExprKeyed(const Expr &E, PatternId Binding,
                         const PatternId *Params, size_t NumParams,
                         const PatternId *ArmPats, size_t NumArmPats,
                         const ExprId *Children, size_t NumChildren);

  std::vector<ExprNode> ExprNodes;
  std::vector<PatternNode> PatternNodes;
  std::vector<DeclNode> DeclNodes;
  std::unordered_map<uint64_t, std::vector<ExprId>> ExprTable;
  std::unordered_map<uint64_t, std::vector<PatternId>> PatternTable;
  std::unordered_map<uint64_t, std::vector<DeclId>> DeclTable;
  Stats TheStats;

  // Scratch stacks for the intern walk: child ids accumulate here (one
  // balanced frame per recursion level), so re-interning an already-known
  // tree allocates nothing once the stacks are warm. Part of the
  // single-writer contract like the tables themselves.
  std::vector<PatternId> PatStack;
  std::vector<ExprId> ExprStack;
};

} // namespace caml
} // namespace seminal

#endif // SEMINAL_MINICAML_ARENA_H
