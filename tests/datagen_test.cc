#include <gtest/gtest.h>

#include <set>

#include "datagen/graph_gen.h"
#include "datagen/music_gen.h"
#include "datagen/parts_gen.h"
#include "support/db_access.h"

namespace rodin {
namespace {

TEST(MusicGenTest, SchemaMatchesFigure1) {
  MusicConfig config;
  config.num_composers = 30;
  GeneratedDb g = GenerateMusicDb(config, PaperMusicPhysical());
  const Schema& s = *g.schema;
  ASSERT_NE(s.FindClass("Person"), nullptr);
  ASSERT_NE(s.FindClass("Composer"), nullptr);
  ASSERT_NE(s.FindClass("Composition"), nullptr);
  ASSERT_NE(s.FindClass("Instrument"), nullptr);
  ASSERT_NE(s.FindRelation("Play"), nullptr);
  EXPECT_TRUE(s.IsSubclassOf(s.FindClass("Composer"), s.FindClass("Person")));
  // Inverse declaration between works and author.
  const Attribute* works = s.FindClass("Composer")->FindAttribute("works");
  EXPECT_EQ(works->inverse_class, "Composition");
  EXPECT_EQ(works->inverse_attr, "author");
  // Method as computed attribute.
  EXPECT_TRUE(s.FindClass("Person")->FindAttribute("age")->computed);
}

TEST(MusicGenTest, LineagesHaveExactDepth) {
  MusicConfig config;
  config.num_composers = 40;
  config.lineage_depth = 8;
  GeneratedDb g = GenerateMusicDb(config, PaperMusicPhysical());
  const ClassDef* cls = g.schema->FindClass("Composer");
  // Walk chains: max depth over all composers must be lineage_depth - 1.
  int max_depth = 0;
  for (uint32_t s = 0; s < g.db->FindExtent("Composer")->size(); ++s) {
    int depth = 0;
    Oid cur{cls->id(), s};
    while (true) {
      const Value m = g.db->GetRaw(cur, "master");
      if (!m.is_ref()) break;
      cur = m.AsRef();
      ++depth;
    }
    max_depth = std::max(max_depth, depth);
  }
  EXPECT_EQ(max_depth, 7);
}

TEST(MusicGenTest, BachExistsWithFullChain) {
  MusicConfig config;
  config.num_composers = 50;
  config.lineage_depth = 10;
  GeneratedDb g = GenerateMusicDb(config, PaperMusicPhysical());
  const ClassDef* cls = g.schema->FindClass("Composer");
  int found = 0;
  for (uint32_t s = 0; s < g.db->FindExtent("Composer")->size(); ++s) {
    if (g.db->GetRaw(Oid{cls->id(), s}, "name").AsString() == "Bach") {
      ++found;
      int depth = 0;
      Oid cur{cls->id(), s};
      while (g.db->GetRaw(cur, "master").is_ref()) {
        cur = g.db->GetRaw(cur, "master").AsRef();
        ++depth;
      }
      EXPECT_EQ(depth, 9);  // deepest of his lineage
    }
  }
  EXPECT_EQ(found, 1);
}

TEST(MusicGenTest, HarpsichordFractionControlsSelectivity) {
  MusicConfig config;
  config.num_composers = 200;
  config.harpsichord_fraction = 0.25;
  config.seed = 3;
  GeneratedDb g = GenerateMusicDb(config, PaperMusicPhysical());
  const Extent* comps = g.db->FindExtent("Composition");
  const ClassDef* cls = g.schema->FindClass("Composition");
  const ClassDef* instr_cls = g.schema->FindClass("Instrument");
  uint32_t with = 0;
  for (uint32_t s = 0; s < comps->size(); ++s) {
    const Value instrs = g.db->GetRaw(Oid{cls->id(), s}, "instruments");
    for (const Value& i : instrs.AsCollection().elems) {
      if (i.AsRef().class_id == instr_cls->id() && i.AsRef().slot == 0) {
        ++with;
        break;
      }
    }
  }
  EXPECT_NEAR(static_cast<double>(with) / comps->size(), 0.25, 0.06);
}

TEST(MusicGenTest, InversesConsistent) {
  GeneratedDb g = GenerateMusicDb(MusicConfig{}, PaperMusicPhysical());
  // Every composition's author lists it among its works.
  const ClassDef* comp_cls = g.schema->FindClass("Composition");
  const Extent* comps = g.db->FindExtent("Composition");
  for (uint32_t s = 0; s < comps->size(); ++s) {
    Oid c{comp_cls->id(), s};
    const Oid author = g.db->GetRaw(c, "author").AsRef();
    const Value works = g.db->GetRaw(author, "works");
    bool found = false;
    for (const Value& w : works.AsCollection().elems) {
      if (w.AsRef() == c) found = true;
    }
    EXPECT_TRUE(found);
  }
}

TEST(MusicGenTest, AgeMethodWorks) {
  GeneratedDb g = GenerateMusicDb(MusicConfig{}, PaperMusicPhysical());
  const ClassDef* cls = g.schema->FindClass("Composer");
  Oid c{cls->id(), 0};
  const int64_t age = InvokeMethod(*g.db, c, "age").AsInt();
  const int64_t birth = g.db->GetRaw(c, "birthyear").AsInt();
  EXPECT_EQ(age, 1992 - birth);
}

TEST(MusicGenTest, DeterministicBySeed) {
  MusicConfig config;
  config.seed = 99;
  GeneratedDb a = GenerateMusicDb(config, PaperMusicPhysical());
  GeneratedDb b = GenerateMusicDb(config, PaperMusicPhysical());
  const ClassDef* cls = a.schema->FindClass("Composition");
  ASSERT_EQ(a.db->FindExtent("Composition")->size(),
            b.db->FindExtent("Composition")->size());
  for (uint32_t s = 0; s < a.db->FindExtent("Composition")->size(); ++s) {
    EXPECT_EQ(a.db->GetRaw(Oid{cls->id(), s}, "title"),
              b.db->GetRaw(Oid{cls->id(), s}, "title"));
  }
}

TEST(PartsGenTest, LevelsAndSubparts) {
  PartsConfig config;
  config.parts_per_level = 20;
  config.num_levels = 4;
  GeneratedDb g = GeneratePartsDb(config, DefaultPartsPhysical());
  const Extent* parts = g.db->FindExtent("Part");
  EXPECT_EQ(parts->size(), 80u);
  const ClassDef* cls = g.schema->FindClass("Part");
  // Leaf parts (level 3) have empty subparts; others have 2..5.
  uint32_t leaves = 0;
  for (uint32_t s = 0; s < parts->size(); ++s) {
    const Value subs = g.db->GetRaw(Oid{cls->id(), s}, "subparts");
    ASSERT_TRUE(subs.is_collection());
    const size_t n = subs.AsCollection().elems.size();
    if (n == 0) {
      ++leaves;
    } else {
      EXPECT_GE(n, 1u);  // sets dedup, so >= 1 survives from 2..5 draws
      EXPECT_LE(n, 5u);
    }
  }
  EXPECT_EQ(leaves, 20u);
}

TEST(PartsGenTest, AssemblyCostMethod) {
  GeneratedDb g = GeneratePartsDb(PartsConfig{}, DefaultPartsPhysical());
  const ClassDef* cls = g.schema->FindClass("Part");
  Oid p{cls->id(), g.db->FindExtent("Part")->size() - 1};  // a top-level part
  const int64_t cost = InvokeMethod(*g.db, p, "assembly_cost").AsInt();
  EXPECT_GE(cost, g.db->GetRaw(p, "unit_cost").AsInt());
}

TEST(GraphGenTest, ChainDepthExact) {
  GraphConfig config;
  config.num_nodes = 64;
  config.chain_depth = 16;
  config.path_len = 0;
  GeneratedDb g = GenerateGraphDb(config, DefaultGraphPhysical());
  const ClassDef* cls = g.schema->FindClass("Node");
  int max_depth = 0;
  for (uint32_t s = 0; s < 64; ++s) {
    int depth = 0;
    Oid cur{cls->id(), s};
    while (g.db->GetRaw(cur, "parent").is_ref()) {
      cur = g.db->GetRaw(cur, "parent").AsRef();
      ++depth;
    }
    max_depth = std::max(max_depth, depth);
  }
  EXPECT_EQ(max_depth, 15);
}

TEST(GraphGenTest, PathLenCreatesAuxClasses) {
  GraphConfig config;
  config.num_nodes = 10;
  config.path_len = 3;
  GeneratedDb g = GenerateGraphDb(config, DefaultGraphPhysical());
  ASSERT_NE(g.schema->FindClass("Aux1"), nullptr);
  ASSERT_NE(g.schema->FindClass("Aux3"), nullptr);
  EXPECT_EQ(g.schema->FindClass("Aux4"), nullptr);
  // Label lives on the last class only.
  EXPECT_EQ(g.schema->FindClass("Aux1")->FindAttribute("label"), nullptr);
  EXPECT_NE(g.schema->FindClass("Aux3")->FindAttribute("label"), nullptr);
  EXPECT_EQ(GraphSelectionPath(config),
            (std::vector<std::string>{"hop1", "hop2", "hop3"}));
}

TEST(GraphGenTest, PathLenZeroPutsLabelOnNode) {
  GraphConfig config;
  config.path_len = 0;
  GeneratedDb g = GenerateGraphDb(config, DefaultGraphPhysical());
  EXPECT_NE(g.schema->FindClass("Node")->FindAttribute("label"), nullptr);
  EXPECT_TRUE(GraphSelectionPath(config).empty());
}

TEST(GraphGenTest, LabelSelectivityMatchesNumLabels) {
  GraphConfig config;
  config.num_nodes = 2000;
  config.chain_depth = 10;
  config.path_len = 0;
  config.num_labels = 4;
  GeneratedDb g = GenerateGraphDb(config, DefaultGraphPhysical());
  const ClassDef* cls = g.schema->FindClass("Node");
  uint32_t label0 = 0;
  for (uint32_t s = 0; s < config.num_nodes; ++s) {
    if (g.db->GetRaw(Oid{cls->id(), s}, "label").AsString() == "label_0") {
      ++label0;
    }
  }
  EXPECT_NEAR(static_cast<double>(label0) / config.num_nodes, 0.25, 0.05);
}

}  // namespace
}  // namespace rodin
