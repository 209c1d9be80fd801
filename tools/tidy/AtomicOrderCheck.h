// dqn-atomic-order: every std::atomic access must state its memory order
// explicitly. Defaulted seq_cst hides the synchronization design decision —
// the repo's lock-free paths (obs shards, gemm backend slot, the
// work-stealing pool) are all deliberately relaxed or acquire/release, so an
// implicit order is either an unreviewed fence or an accidental one.
//
// Semantic upgrades over the ast_lint.py textual floor:
//   * member calls whose memory_order argument is a CXXDefaultArgExpr are
//     caught even when the call is spelled through references, typedefs, or
//     template aliases the greppable rule cannot resolve;
//   * operator sugar (`++ctr`, `flag = true`, `x += 2`) and implicit
//     conversions (`if (flag)`) are diagnosed — they are always seq_cst and
//     have no spelling that could carry an order.
#pragma once

#include "clang-tidy/ClangTidyCheck.h"

namespace clang::tidy::dqn {

class AtomicOrderCheck : public ClangTidyCheck {
 public:
  AtomicOrderCheck(StringRef Name, ClangTidyContext *Context)
      : ClangTidyCheck(Name, Context) {}
  bool isLanguageVersionSupported(const LangOptions &LangOpts) const override {
    return LangOpts.CPlusPlus;
  }
  void registerMatchers(ast_matchers::MatchFinder *Finder) override;
  void check(const ast_matchers::MatchFinder::MatchResult &Result) override;
};

}  // namespace clang::tidy::dqn
