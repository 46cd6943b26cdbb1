// Exact measures on small instances (m nulls each, fresh from the seed every
// round). Each result is checked against a number the paper proves or a
// second computation by another route:
//   - Proposition 4: µ(Q|Σ,D) = p/r exactly under one inclusion dependency;
//   - Section 4's example: µ = 1/3 and 2/3;
//   - Theorem 5: for FD-only Σ the exact conditional µ equals µ on the chase;
//   - Theorem 1: MuViaPolynomial is 1 exactly on the naive answers;
//   - Corollary 1: certain answers ⊆ naive answers;
//   - Theorem 8: UcqBestAnswers equals generic BestAnswers on a UCQ.
// Instances are padded with nulls in a relation W that neither the query
// nor Σ mentions: the support counts of numerator and denominator both gain
// the same factor, so the measure is unchanged while the exact computation
// enumerates all m nulls.

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/partitions.h"
#include "common/rational.h"
#include "constraints/fd.h"
#include "constraints/ind.h"
#include "core/comparison.h"
#include "core/conditional.h"
#include "core/measure.h"
#include "core/support_polynomial.h"
#include "core/ucq_compare.h"
#include "par/pool.h"
#include "perfbench.h"
#include "query/parser.h"

namespace perfbench {
namespace {

using zeroone::ConstraintSet;
using zeroone::Database;
using zeroone::FunctionalDependency;
using zeroone::InclusionDependency;
using zeroone::Query;
using zeroone::Rational;
using zeroone::Relation;
using zeroone::Tuple;
using zeroone::Value;

constexpr std::size_t kAnswerRows = 3;   // R rows not in S: the naive answers.
constexpr std::size_t kSharedRows = 2;   // R rows copied into S.
constexpr std::size_t kExtraSRows = 2;   // S rows of its own.
constexpr std::size_t kConstants = 5;
constexpr std::size_t kProp4R = 4;
// CertainAnswers and BestAnswers take 10-200 ms a call, and a run holds
// one round every second or so: each round runs them on this many fresh
// instances, so that their quantiles rest on more samples.
constexpr std::size_t kHeavyInstances = 2;

void PadNulls(Database* db, std::size_t count) {
  Relation& w = db->AddRelation("W", 1);
  for (std::size_t i = 0; i < count; ++i) {
    w.Insert({Value::Null("w" + std::to_string(i))});
  }
}

std::shared_ptr<InclusionDependency> RIntoU() {
  return std::make_shared<InclusionDependency>(
      "R", 2, std::vector<std::size_t>{0}, "U", 1,
      std::vector<std::size_t>{0});
}

class ExactPart : public Part {
 public:
  ExactPart(const Scale& scale, std::uint64_t seed)
      : scale_(scale), rng_(seed ^ 0xe8ac7ULL) {}

  bool Setup(Context& ctx) override {
    (void)ctx;
    zeroone::StatusOr<Query> prop4 =
        zeroone::ParseQuery(":= exists x, y . R(x, y) & S(x, y)");
    zeroone::StatusOr<Query> paper = zeroone::ParseQuery("Q(x, y) := R(x, y)");
    zeroone::StatusOr<Query> anti =
        zeroone::ParseQuery("Q(x, y) := R(x, y) & !S(x, y)");
    zeroone::StatusOr<Query> ucq =
        zeroone::ParseQuery("Q(x, y) := R(x, y) | S(y, x)");
    if (!prop4.ok() || !paper.ok() || !anti.ok() || !ucq.ok()) return false;
    prop4_query_ = *prop4;
    paper_query_ = *paper;
    anti_query_ = *anti;
    ucq_query_ = *ucq;
    for (std::size_t m : {scale_.exact_nulls, scale_.best_nulls}) {
      if (m < 1 || m > kAnswerRows + kSharedRows) return false;
    }
    // The Proposition 4 and Section 4 databases do not depend on the seed:
    // built once, outside the timed rounds.
    for (std::size_t p = 1; p <= kProp4R; ++p) {
      prop4_dbs_.push_back(Proposition4Database(p));
    }
    paper_db_ = PaperExampleDatabase();
    return true;
  }

  std::size_t OpsPerRound() const override {
    // Prop. 4 for p = 1..r, two paper tuples, FD conditional, µ on every
    // naive answer and one non-answer, certain, generic best and UCQ best
    // on kHeavyInstances instances each.
    return kProp4R + 2 + 1 + (kAnswerRows + 1) + kHeavyInstances * (1 + 2);
  }

  void Round(Context& ctx) override {
    // Serial in every workload: the par layer does no work here.
    zeroone::par::SetParThreads(1);
    Clock::time_point generate_start = Clock::now();
    Instance inst = MakeInstance(scale_.exact_nulls);
    std::vector<Instance> certain_insts;
    std::vector<Instance> best_insts;
    for (std::size_t k = 0; k < kHeavyInstances; ++k) {
      certain_insts.push_back(k == 0 ? inst : MakeInstance(scale_.exact_nulls));
      best_insts.push_back(MakeInstance(scale_.best_nulls));
    }
    ctx.AddOverheadMs(MsSince(generate_start));
    CounterDelta support;
    for (std::size_t p = 1; p <= kProp4R; ++p) CondMuProposition4(ctx, p);
    CondMuPaperExample(ctx);
    CondMuFd(ctx, inst);
    MuOnNaiveAnswers(ctx, inst);
    for (const Instance& c : certain_insts) Certain(ctx, c);
    for (const Instance& b : best_insts) Best(ctx, b);
    if (ctx.traced()) {
      ctx.AddCount("core.support_ops", static_cast<double>(OpsPerRound()));
      ctx.AddCount("core.partitions", support("support.partitions_enumerated"));
      // The partition-polynomial route counts (partition, map) pairs; the
      // valuation-enumerating routes count valuations. Both are one
      // evaluation of the query on a valuated database.
      ctx.AddCount("core.valuations",
                   support("support.valuations_enumerated") +
                       support("support.partition_maps_enumerated"));
      ctx.AddCount("core.witnesses", support("support.witnesses_found"));
      Probe(ctx, inst);
    }
  }

 private:
  struct Instance {
    Database db;
    std::vector<Tuple> naive;  // R \ S, computed here from the rows.
    Tuple non_answer;          // An R row that S also holds.
    std::vector<FunctionalDependency> fds;
  };

  // R has kAnswerRows + kSharedRows rows, S the shared rows plus its own;
  // the nulls sit in the y cells of the first R rows and the constants are
  // drawn from a pool of kConstants, all of which occur. The answer rows
  // take their x from {k0, k1} and every other row from {k2, k3, k4}, so no
  // valuation can move an answer into S: every naive answer is certain, and
  // the certain-answer search enumerates every valuation for each of them.
  // No two R rows with constant y share their x, so the FD R: 0 -> 1 holds
  // in some valuation and the conditional µ of an answer under it is 1. The
  // shape (and so the work of the exact computations) is the same in every
  // round and seed.
  Instance MakeInstance(std::size_t nulls) {
    std::vector<Value> pool;
    for (std::size_t i = 0; i < kConstants; ++i) {
      pool.push_back(Value::Constant("k" + std::to_string(i)));
    }
    constexpr std::size_t kRRows = kAnswerRows + kSharedRows;
    constexpr std::size_t cells = 2 * (kRRows + kExtraSRows);
    while (true) {
      std::vector<Value> v(cells);
      for (std::size_t c = 0; c < cells; ++c) {
        bool answer_x = c % 2 == 0 && c / 2 < kAnswerRows;
        bool other_x = c % 2 == 0 && !answer_x;
        v[c] = answer_x  ? pool[rng_.Below(2)]
               : other_x ? pool[2 + rng_.Below(kConstants - 2)]
                         : pool[rng_.Below(kConstants)];
      }
      // Null j fills the y cell of R row j; S's own rows repeat nulls in
      // their y cells, so marked nulls tie R to S.
      for (std::size_t j = 0; j < nulls; ++j) {
        v[2 * j + 1] = Value::Null("x" + std::to_string(j));
      }
      for (std::size_t i = 0; i < kExtraSRows; ++i) {
        v[2 * (kRRows + i) + 1] = Value::Null("x" + std::to_string(i % nulls));
      }
      std::vector<Tuple> r, s;
      for (std::size_t i = 0; i < kRRows; ++i) r.push_back({v[2 * i], v[2 * i + 1]});
      for (std::size_t i = 0; i < kSharedRows; ++i) s.push_back(r[kAnswerRows + i]);
      for (std::size_t i = 0; i < kExtraSRows; ++i) {
        std::size_t at = 2 * (kRRows + i);
        s.push_back({v[at], v[at + 1]});
      }
      std::vector<Tuple> sorted_r = r;
      std::sort(sorted_r.begin(), sorted_r.end());
      bool distinct =
          std::adjacent_find(sorted_r.begin(), sorted_r.end()) == sorted_r.end();
      bool extras_apart = true;
      for (std::size_t i = kSharedRows; i < s.size(); ++i) {
        if (std::find(r.begin(), r.end(), s[i]) != r.end()) extras_apart = false;
      }
      std::unordered_set<std::uint32_t> used;
      for (const Value& x : v) {
        if (x.is_constant()) used.insert(x.id());
      }
      bool fd_satisfiable = true;
      for (std::size_t i = 0; i < kRRows; ++i) {
        for (std::size_t j = i + 1; j < kRRows; ++j) {
          if (r[i][0] == r[j][0] && r[i][1].is_constant() &&
              r[j][1].is_constant()) {
            fd_satisfiable = false;
          }
        }
      }
      if (!distinct || !extras_apart || !fd_satisfiable ||
          used.size() != kConstants) {
        continue;
      }
      Instance inst;
      inst.db.AddRelation("R", 2).InsertBatch(r);
      inst.db.AddRelation("S", 2).InsertBatch(s);
      inst.naive.assign(r.begin(), r.begin() + kAnswerRows);
      std::sort(inst.naive.begin(), inst.naive.end());
      inst.non_answer = r[kAnswerRows];
      inst.fds.emplace_back("R", 2, std::vector<std::size_t>{0}, 1);
      return inst;
    }
  }

  // Proposition 4: R holds p - 1 rows (i, i) and (⊥, p), S holds (⊥, ⊥),
  // U holds 1..r, and Σ = R[0] ⊆ U[0]; then µ(Q|Σ,D) = p/r.
  Database Proposition4Database(std::size_t p) const {
    Database db;
    Relation& r = db.AddRelation("R", 2);
    for (std::size_t i = 1; i < p; ++i) {
      r.Insert({Value::Int(static_cast<std::int64_t>(i)),
                Value::Int(static_cast<std::int64_t>(i))});
    }
    Value null = Value::Null("p4");
    r.Insert({null, Value::Int(static_cast<std::int64_t>(p))});
    db.AddRelation("S", 2).Insert({null, null});
    Relation& u = db.AddRelation("U", 1);
    for (std::size_t i = 1; i <= kProp4R; ++i) {
      u.Insert({Value::Int(static_cast<std::int64_t>(i))});
    }
    PadNulls(&db, scale_.exact_nulls - 1);
    return db;
  }

  Database PaperExampleDatabase() const {
    Database db;
    Relation& r = db.AddRelation("R", 2);
    r.Insert({Value::Constant("2"), Value::Constant("1")});
    r.Insert({Value::Null("cond"), Value::Null("cond")});
    Relation& u = db.AddRelation("U", 1);
    for (const char* c : {"1", "2", "3"}) u.Insert({Value::Constant(c)});
    PadNulls(&db, scale_.exact_nulls - 1);
    return db;
  }

  void CondMuProposition4(Context& ctx, std::size_t p) {
    const Database& db = prop4_dbs_[p - 1];
    ConstraintSet sigma{RIntoU()};
    ctx.tracer()->BeginOp();
    Tracer::Scope op(ctx.tracer(), "op.cond_mu");
    ctx.Attempt();
    Rational mu;
    CounterDelta compiles;
    CpuTurn turn(1);
    double ms = TimeCall(ctx, "core.ConditionalMu", [&] {
      mu = zeroone::ConditionalMu(prop4_query_, sigma, db);
    });
    ctx.AddSample("cond_mu", ms);
    if (ctx.traced()) {
      ctx.AddCount("plan.compiles", compiles("plan.compile"));
      ctx.AddCount("plan.compile_ops", 1);
    }
    Rational expected(static_cast<std::int64_t>(p),
                      static_cast<std::int64_t>(kProp4R));
    if (ctx.corrupt() == "flip_mu.prop4") mu = Rational(1) - mu;
    if (mu != expected) {
      ctx.CheckFailed("Proposition 4: µ(Q|Σ,D) = " + mu.ToString() +
                      ", expected " + expected.ToString());
    }
  }

  void CondMuPaperExample(Context& ctx) {
    Value one = Value::Constant("1");
    Value two = Value::Constant("2");
    Value null = Value::Null("cond");
    ConstraintSet sigma{RIntoU()};
    const std::pair<Tuple, Rational> cases[] = {
        {Tuple{one, null}, Rational(1, 3)}, {Tuple{two, null}, Rational(2, 3)}};
    for (const auto& [tuple, expected] : cases) {
      ctx.tracer()->BeginOp();
      Tracer::Scope op(ctx.tracer(), "op.cond_mu_paper");
      ctx.Attempt();
      Rational mu;
      CpuTurn turn(1);
      TimeCall(ctx, "core.ConditionalMu", [&] {
        mu = zeroone::ConditionalMu(paper_query_, sigma, paper_db_, tuple);
      });
      if (mu != expected) {
        ctx.CheckFailed("paper example: µ(Q|Σ,D," + tuple.ToString() +
                        ") = " + mu.ToString() + ", expected " +
                        expected.ToString());
      }
    }
  }

  void CondMuFd(Context& ctx, const Instance& inst) {
    ConstraintSet sigma;
    for (const FunctionalDependency& fd : inst.fds) {
      sigma.push_back(std::make_shared<FunctionalDependency>(fd));
    }
    const Tuple& tuple = inst.naive.front();
    ctx.tracer()->BeginOp();
    Tracer::Scope op(ctx.tracer(), "op.cond_mu_fd");
    ctx.Attempt();
    Rational exact;
    CpuTurn turn(1);
    TimeCall(ctx, "core.ConditionalMu", [&] {
      exact = zeroone::ConditionalMu(anti_query_, sigma, inst.db, tuple);
    });
    int via_chase = 0;
    TimeCall(ctx, "core.ConditionalMuViaChase", [&] {
      via_chase = zeroone::ConditionalMuViaChase(anti_query_, inst.fds,
                                                 inst.db, tuple);
    });
    if (exact != Rational(via_chase)) {
      ctx.CheckFailed("Theorem 5: exact µ(Q|Σ) = " + exact.ToString() +
                      " but µ on the chase = " + std::to_string(via_chase));
    } else if (exact != Rational(1)) {
      ctx.CheckFailed("Theorem 5: µ(Q|Σ) of a certain answer under a "
                      "satisfiable FD is " + exact.ToString() + ", not 1");
    }
  }

  void MuOnNaiveAnswers(Context& ctx, const Instance& inst) {
    std::vector<std::pair<Tuple, Rational>> cases;
    for (const Tuple& t : inst.naive) cases.emplace_back(t, Rational(1));
    cases.emplace_back(inst.non_answer, Rational(0));
    bool first = true;
    for (const auto& [tuple, expected] : cases) {
      ctx.tracer()->BeginOp();
      Tracer::Scope op(ctx.tracer(), "op.mu_poly");
      ctx.Attempt();
      Rational mu;
      CpuTurn turn(1);
      TimeCall(ctx, "core.MuViaPolynomial", [&] {
        mu = zeroone::MuViaPolynomial(anti_query_, inst.db, tuple);
      });
      if (first && ctx.corrupt() == "flip_mu.theorem1") mu = Rational(1) - mu;
      first = false;
      if (mu != expected) {
        ctx.CheckFailed("Theorem 1: MuViaPolynomial" + tuple.ToString() +
                        " = " + mu.ToString() + ", expected " +
                        expected.ToString());
      }
    }
  }

  void Certain(Context& ctx, const Instance& inst) {
    ctx.tracer()->BeginOp();
    Tracer::Scope op(ctx.tracer(), "op.certain");
    ctx.Attempt();
    std::vector<Tuple> certain;
    CpuTurn turn(1);
    double ms = TimeCall(ctx, "core.CertainAnswers", [&] {
      certain = zeroone::CertainAnswers(anti_query_, inst.db);
    });
    ctx.AddSample("certain", ms);
    std::sort(certain.begin(), certain.end());
    for (const Tuple& t : certain) {
      if (!std::binary_search(inst.naive.begin(), inst.naive.end(), t)) {
        ctx.CheckFailed("Corollary 1: certain answer " + t.ToString() +
                        " is not a naive answer");
      }
    }
    if (certain != inst.naive) {
      ctx.CheckFailed("certain answers: " + std::to_string(certain.size()) +
                      " of the " + std::to_string(inst.naive.size()) +
                      " naive answers, which S cannot reach");
    }
  }

  void Best(Context& ctx, const Instance& inst) {
    std::vector<Tuple> generic;
    {
      ctx.tracer()->BeginOp();
      Tracer::Scope op(ctx.tracer(), "op.best");
      ctx.Attempt();
      CounterDelta compiles;
      CpuTurn turn(1);
      double ms = TimeCall(ctx, "core.BestAnswers", [&] {
        generic = zeroone::BestAnswers(ucq_query_, inst.db);
      });
      ctx.AddSample("best", ms);
      if (ctx.traced()) {
        ctx.AddCount("plan.compiles", compiles("plan.compile"));
        ctx.AddCount("plan.compile_ops", 1);
      }
    }
    ctx.tracer()->BeginOp();
    Tracer::Scope op(ctx.tracer(), "op.ucq_best");
    ctx.Attempt();
    zeroone::StatusOr<std::vector<Tuple>> ucq = std::vector<Tuple>{};
    double ms = 0;
    {
      CpuTurn turn(1);
      ms = TimeCall(ctx, "core.UcqBestAnswers", [&] {
        ucq = zeroone::UcqBestAnswers(ucq_query_, inst.db);
      });
    }
    if (!ucq.ok()) {
      ctx.Failed("UcqBestAnswers: " + ucq.status().message());
      return;
    }
    if (ctx.traced()) ctx.AddSample("core.ucq_best_ms", ms);
    std::vector<Tuple> a = generic;
    std::vector<Tuple> b = *ucq;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    if (a != b || a.empty()) {
      ctx.CheckFailed("Theorem 8: UcqBestAnswers has " +
                      std::to_string(b.size()) + " tuples, BestAnswers " +
                      std::to_string(a.size()));
    }
  }

  // Traced run: single calls into core, common and constraints on the
  // round's instance.
  void Probe(Context& ctx, const Instance& inst) {
    Clock::time_point start = Clock::now();
    ctx.tracer()->BeginOp();
    Tracer::Scope op(ctx.tracer(), "probe.exact");
    CpuTurn turn(1);
    double poly_ms = TimeCall(ctx, "core.ComputeSupportPolynomial", [&] {
      zeroone::ComputeSupportPolynomial(anti_query_, inst.db,
                                        inst.naive.front());
    });
    ctx.AddSample("core.support_poly_ms", poly_ms);
    double sep_ms = TimeCall(ctx, "core.Separates", [&] {
      zeroone::Separates(ucq_query_, inst.db, inst.naive[0], inst.naive[1]);
    });
    ctx.AddSample("core.separates_ms", sep_ms);
    std::size_t partitions = 0;
    double part_ms = TimeCall(ctx, "common.ForEachSetPartition", [&] {
      zeroone::ForEachSetPartition(
          inst.db.Nulls().size(),
          [&](const zeroone::SetPartition&) { ++partitions; });
    });
    ctx.AddSample("common.partition_enum_ms", part_ms);
    CounterDelta chase;
    zeroone::ChaseResult result;
    double chase_ms = TimeCall(ctx, "constraints.ChaseFds", [&] {
      result = zeroone::ChaseFds(inst.fds, inst.db);
    });
    ctx.AddSample("constraints.chase_ms", chase_ms);
    ctx.AddCount("constraints.chase_steps",
                 chase("chase.rounds") + chase("chase.fd_repairs"));
    ctx.AddCount("constraints.chases", 1);
    ctx.AddOverheadMs(MsSince(start));
  }

  Scale scale_;
  Rng rng_;
  Query prop4_query_;
  Query paper_query_;
  Query anti_query_;
  Query ucq_query_;
  std::vector<Database> prop4_dbs_;  // Index p - 1.
  Database paper_db_;
};

}  // namespace

std::unique_ptr<Part> MakeExactPart(const Scale& scale, std::uint64_t seed) {
  return std::make_unique<ExactPart>(scale, seed);
}

void ReportExactLayers(const Context& ctx, double rounds, Metrics* out) {
  (void)rounds;
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  double ops = ctx.Count("core.support_ops");
  (*out)["core.support_poly_ms"] = {
      Percentile(ctx.Samples("core.support_poly_ms"), kQuantile), "ms"};
  (*out)["core.partitions_per_op"] = {ratio(ctx.Count("core.partitions"), ops),
                                      "count"};
  (*out)["core.valuations_per_op"] = {ratio(ctx.Count("core.valuations"), ops),
                                      "count"};
  (*out)["core.witness_ratio"] = {
      ratio(ctx.Count("core.witnesses"), ctx.Count("core.valuations")),
      "ratio"};
  (*out)["core.separates_ms"] = {Percentile(ctx.Samples("core.separates_ms"), kQuantile),
                                 "ms"};
  (*out)["core.ucq_best_ms"] = {Percentile(ctx.Samples("core.ucq_best_ms"), kQuantile), "ms"};
  (*out)["common.partition_enum_ms"] = {
      Percentile(ctx.Samples("common.partition_enum_ms"), kQuantile), "ms"};
  (*out)["constraints.chase_ms"] = {
      Percentile(ctx.Samples("constraints.chase_ms"), kQuantile), "ms"};
  (*out)["constraints.chase_steps"] = {
      ratio(ctx.Count("constraints.chase_steps"),
            ctx.Count("constraints.chases")),
      "count"};
  (*out)["plan.compiles_per_op"] = {
      ratio(ctx.Count("plan.compiles"), ctx.Count("plan.compile_ops")),
      "count"};
}

}  // namespace perfbench
