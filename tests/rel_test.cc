// Tests for the relational bridge (§3 "Relational dependencies", §7.1):
// FDs, CFDs and EGDs as GEDs; denial constraints as GDCs.

#include <gtest/gtest.h>

#include "ext/gdc.h"
#include "reason/validation.h"
#include "rel/relation.h"
#include "rel/translate.h"

namespace ged {
namespace {

RelationSchema EmpSchema() {
  return RelationSchema{"emp", {"name", "dept", "mgr", "salary"}};
}

Relation SampleEmp(bool fd_violation) {
  Relation r(EmpSchema());
  EXPECT_TRUE(r.AddTuple({Value("ann"), Value("db"), Value("max"),
                          Value(100)}).ok());
  EXPECT_TRUE(r.AddTuple({Value("bob"), Value("db"), Value("max"),
                          Value(90)}).ok());
  EXPECT_TRUE(r.AddTuple({Value("cee"), Value("os"),
                          Value(fd_violation ? "eve" : "kim"), Value(80)})
                  .ok());
  EXPECT_TRUE(r.AddTuple({Value("dan"), Value("os"), Value("kim"),
                          Value(70)}).ok());
  return r;
}

TEST(Relation, ArityChecked) {
  Relation r(EmpSchema());
  EXPECT_FALSE(r.AddTuple({Value(1)}).ok());
}

TEST(Relation, ToGraphOneNodePerTuple) {
  Relation r = SampleEmp(false);
  Graph g = RelationsToGraph({r});
  EXPECT_EQ(g.NumNodes(), 4u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_EQ(*g.attr(0, Sym("name")), Value("ann"));
  EXPECT_EQ(g.label(0), Sym("emp"));
}

TEST(TranslateFd, DeptDeterminesMgr) {
  auto fd = TranslateFd(EmpSchema(), {"dept"}, {"mgr"}, "fd_dept_mgr");
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  EXPECT_TRUE(fd.value().IsGfdx());  // plain FDs carry only variable literals
  Graph ok_graph = RelationsToGraph({SampleEmp(false)});
  EXPECT_TRUE(Validate(ok_graph, {fd.value()}).satisfied);
  Graph bad_graph = RelationsToGraph({SampleEmp(true)});
  EXPECT_FALSE(Validate(bad_graph, {fd.value()}).satisfied);
}

TEST(TranslateFd, UnknownAttributeFails) {
  EXPECT_FALSE(TranslateFd(EmpSchema(), {"ghost"}, {"mgr"}, "bad").ok());
}

TEST(TranslateCfd, ConstantPatternScopesTheRule) {
  // CFD: within dept = "db", mgr determines salary band... here simply
  // dept = "db" -> mgr = "max" (a constant consequent).
  auto cfd = TranslateCfd(EmpSchema(), {{"dept", Value("db")}},
                          {"mgr", Value("max")}, "cfd_db_mgr");
  ASSERT_TRUE(cfd.ok()) << cfd.status().ToString();
  Graph g = RelationsToGraph({SampleEmp(false)});
  EXPECT_TRUE(Validate(g, {cfd.value()}).satisfied);
  // Break it: a db employee with another manager.
  Relation r = SampleEmp(false);
  ASSERT_TRUE(
      r.AddTuple({Value("eli"), Value("db"), Value("zoe"), Value(60)}).ok());
  Graph bad = RelationsToGraph({r});
  EXPECT_FALSE(Validate(bad, {cfd.value()}).satisfied);
}

TEST(TranslateEgd, PairOfGeds) {
  // EGD: emp(n1, d, m1, s1) ∧ emp(n2, d, m2, s2) → m1 = m2 (same dept,
  // same manager) — the repeated variable d becomes X_E.
  Egd egd;
  egd.atoms = {{"emp", {"n1", "d", "m1", "s1"}},
               {"emp", {"d2", "d", "m2", "s2"}}};
  egd.atoms[1].vars[0] = "n2";
  egd.y1 = "m1";
  egd.y2 = "m2";
  auto pair = TranslateEgd({EmpSchema()}, egd, "egd_dept");
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  const auto& [phi_r, phi_e] = pair.value();
  // φ_R: attribute existence on both atom nodes.
  EXPECT_EQ(phi_r.X().size(), 0u);
  EXPECT_EQ(phi_r.Y().size(), 8u);
  // φ_E detects the violation.
  Graph bad = RelationsToGraph({SampleEmp(true)});
  EXPECT_FALSE(Validate(bad, {phi_e}).satisfied);
  Graph good = RelationsToGraph({SampleEmp(false)});
  EXPECT_TRUE(Validate(good, {phi_e}).satisfied);
  // φ_R holds on fully-populated relations.
  EXPECT_TRUE(Validate(good, {phi_r}).satisfied);
}

TEST(TranslateDenial, SalaryInversion) {
  // ¬∃ two db employees where one earns more than their own manager-peer:
  // simplified: no pair in the same dept with salary(t1) < salary(t2) and
  // mgr(t1) != mgr(t2).
  std::vector<DenialPredicate> preds;
  preds.push_back(DenialPredicate{"s1", Pred::kLt, "s2", std::nullopt});
  preds.push_back(DenialPredicate{"m1", Pred::kNe, "m2", std::nullopt});
  std::vector<RelAtom> atoms = {{"emp", {"n1", "d", "m1", "s1"}},
                                {"emp", {"n2", "d", "m2", "s2"}}};
  auto gdc = TranslateDenial({EmpSchema()}, atoms, preds, "dc_salary");
  ASSERT_TRUE(gdc.ok()) << gdc.status().ToString();
  EXPECT_TRUE(gdc.value().is_forbidding());
  Graph good = RelationsToGraph({SampleEmp(false)});
  EXPECT_TRUE(ValidateGdcs(FrozenGraph::Freeze(good), {gdc.value()}));
  Graph bad = RelationsToGraph({SampleEmp(true)});
  EXPECT_FALSE(ValidateGdcs(FrozenGraph::Freeze(bad), {gdc.value()}));
}

TEST(TranslateDenial, ConstantPredicate) {
  std::vector<DenialPredicate> preds;
  preds.push_back(
      DenialPredicate{"s", Pred::kGt, std::nullopt, Value(95)});
  std::vector<RelAtom> atoms = {{"emp", {"n", "d", "m", "s"}}};
  auto gdc = TranslateDenial({EmpSchema()}, atoms, preds, "dc_cap");
  ASSERT_TRUE(gdc.ok());
  Graph g = RelationsToGraph({SampleEmp(false)});
  // ann earns 100 > 95
  EXPECT_FALSE(ValidateGdcs(FrozenGraph::Freeze(g), {gdc.value()}));
}

}  // namespace
}  // namespace ged
