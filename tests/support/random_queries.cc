#include "support/random_queries.h"

#include <string>
#include <vector>

#include "query/builder.h"

namespace rodin {

QueryGraph RandomSpjQuery(Rng* rng, const Schema& schema) {
  QueryGraphBuilder b;
  NodeBuilder& node = b.Node("Answer");
  const int arcs = 1 + static_cast<int>(rng->Below(3));
  std::vector<std::string> vars;
  for (int i = 0; i < arcs; ++i) {
    const std::string var = "x" + std::to_string(i);
    node.Input("Composer", var);
    vars.push_back(var);
    if (i > 0) {
      node.Where(Expr::Eq(Expr::Path(vars[i - 1], {"master"}),
                          rng->Chance(0.5) ? Expr::Path(var, {"master"})
                                           : Expr::Path(var, {})));
    }
  }
  const int sels = 1 + static_cast<int>(rng->Below(3));
  for (int i = 0; i < sels; ++i) {
    const std::string& var = vars[rng->Below(vars.size())];
    switch (rng->Below(4)) {
      case 0:
        node.Where(Expr::Cmp(rng->Chance(0.5) ? CompareOp::kGe : CompareOp::kLt,
                             Expr::Path(var, {"birthyear"}),
                             Expr::Lit(Value::Int(rng->Range(1620, 1720)))));
        break;
      case 1:
        node.Where(Expr::Eq(
            Expr::Path(var, {"works", "instruments", "family"}),
            Expr::Lit(Value::Str(rng->Chance(0.5) ? "keyboard" : "string"))));
        break;
      case 2:
        node.Where(Expr::Eq(
            Expr::Path(var, {"master", "name"}),
            Expr::Lit(Value::Str("composer_" + std::to_string(rng->Below(8))))));
        break;
      default: {
        static const char* kInstr[] = {"harpsichord", "flute", "violin",
                                       "organ"};
        node.Where(Expr::Eq(
            Expr::Path(var, {"works", "instruments", "iname"}),
            Expr::Lit(Value::Str(kInstr[rng->Below(4)]))));
        break;
      }
    }
  }
  node.OutPath("n", vars[0], {"name"});
  if (rng->Chance(0.5)) node.OutPath("y", vars[0], {"birthyear"});
  return b.Build(schema);
}

QueryGraph RandomRecursiveQuery(Rng* rng, const Schema& schema) {
  QueryGraphBuilder b;
  b.Node("Influencer", "P1")
      .Input("Composer", "x")
      .OutPath("master", "x", {"master"})
      .OutPath("disciple", "x")
      .Out("gen", Expr::Lit(Value::Int(1)));
  b.Node("Influencer", "P2")
      .Input("Influencer", "i")
      .Input("Composer", "x")
      .Where(Expr::Eq(Expr::Path("i", {"disciple"}), Expr::Path("x", {"master"})))
      .OutPath("master", "i", {"master"})
      .OutPath("disciple", "x")
      .Out("gen", Expr::Arith(ArithOp::kAdd, Expr::Path("i", {"gen"}),
                              Expr::Lit(Value::Int(1))));

  NodeBuilder& answer = b.Node("Answer", "P3");
  answer.Input("Influencer", "j");
  if (rng->Chance(0.7)) {
    answer.Where(Expr::Cmp(CompareOp::kGe, Expr::Path("j", {"gen"}),
                           Expr::Lit(Value::Int(rng->Range(2, 6)))));
  }
  if (rng->Chance(0.5)) {
    static const char* kInstr[] = {"harpsichord", "flute", "violin", "organ"};
    answer.Where(
        Expr::Eq(Expr::Path("j", {"master", "works", "instruments", "iname"}),
                 Expr::Lit(Value::Str(kInstr[rng->Below(4)]))));
  } else {
    answer.Where(Expr::Cmp(CompareOp::kLt,
                           Expr::Path("j", {"master", "birthyear"}),
                           Expr::Lit(Value::Int(rng->Range(1620, 1720)))));
  }
  answer.OutPath("n", "j", {"disciple", "name"});
  return b.Build(schema);
}

}  // namespace rodin
