#include "gen.h"

#include <string>

namespace perfbench {

namespace {

constexpr const char* kInfluencerView = R"(relation Influencer includes
  (select [master: x.master, disciple: x, gen: 1] from x in Composer)
  union
  (select [master: i.master, disciple: x, gen: i.gen + 1]
   from i in Influencer, x in Composer where i.disciple = x.master)
)";

constexpr const char* kInstruments[] = {
    "harpsichord", "flute", "violin", "cello",   "oboe",    "organ",
    "viola",       "trumpet", "horn", "bassoon", "timpani", "lute"};
constexpr uint64_t kNumInstruments = sizeof(kInstruments) / sizeof(*kInstruments);

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

}  // namespace

const char* const kFig3Query = R"(relation Influencer includes
  (select [master: x.master, disciple: x, gen: 1] from x in Composer)
  union
  (select [master: i.master, disciple: x, gen: i.gen + 1]
   from i in Influencer, x in Composer where i.disciple = x.master)

select [dname: j.disciple.name] from j in Influencer
where j.master.works.instruments.iname = "harpsichord" and j.gen >= 6
)";

const char* const kUnselectiveQuery = R"(relation Influencer includes
  (select [master: x.master, disciple: x, gen: 1] from x in Composer)
  union
  (select [master: i.master, disciple: x, gen: i.gen + 1]
   from i in Influencer, x in Composer where i.disciple = x.master)

select [dname: j.disciple.name] from j in Influencer
where j.master.birthyear > 1000 and j.gen >= 2
)";

uint64_t SeededRng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

AdhocStream::AdhocStream(uint64_t seed, uint32_t composers)
    : rng_(seed ^ 0xad0cull), composers_(composers) {}

std::string AdhocStream::Next() {
  const bool spj = next_++ % 5 < 3;
  const int vars = spj ? static_cast<int>(2 + spj_++ % 3) : 0;
  for (;;) {
    std::string text = spj ? Spj(vars) : Recursive();
    if (seen_.insert(text).second) return text;
  }
}

std::string AdhocStream::ComposerPredicate(const std::string& v) {
  const std::string year = std::to_string(rng_.Range(1600, 1750));
  const std::string name = Quote("composer_" + std::to_string(rng_.Below(composers_)));
  const std::string instr = Quote(kInstruments[rng_.Below(kNumInstruments)]);
  switch (rng_.Below(8)) {  // two shapes per path depth 1..4
    case 0: return v + ".birthyear < " + year;
    case 1: return v + ".name = " + name;
    case 2: return v + ".master.birthyear >= " + year;
    case 3: return v + ".master.name = " + name;
    case 4: return v + ".works.instruments.iname = " + instr;
    case 5: return v + ".master.master.birthyear < " + year;
    case 6: return v + ".master.works.instruments.iname = " + instr;
    default: return v + ".master.master.master.birthyear >= " + year;
  }
}

std::string AdhocStream::CompositionPredicate(const std::string& v) {
  const std::string year = std::to_string(rng_.Range(1600, 1750));
  switch (rng_.Below(4)) {  // path depth 1..4
    case 0:
      return v + ".title = " +
             Quote("work_" + std::to_string(rng_.Below(3 * composers_)));
    case 1:
      return v + ".instruments.iname = " +
             Quote(kInstruments[rng_.Below(kNumInstruments)]);
    case 2: return v + ".author.master.birthyear >= " + year;
    default: return v + ".author.master.master.birthyear < " + year;
  }
}

std::string AdhocStream::Spj(int vars) {
  // Range variables: x0 is a Composer; each further variable is another
  // Composer joined through master, or a Composition of an earlier
  // composer (by explicit join or as a path variable).
  std::vector<std::string> composers = {"x0"};
  std::vector<std::string> compositions;
  std::vector<std::string> from = {"x0 in Composer"};
  std::vector<std::string> where;
  for (int i = 1; i < vars; ++i) {
    const std::string prev = composers[rng_.Below(composers.size())];
    switch (rng_.Below(4)) {
      case 0: {
        const std::string v = "x" + std::to_string(i);
        from.push_back(v + " in Composer");
        where.push_back(prev + ".master = " + v);
        composers.push_back(v);
        break;
      }
      case 1: {
        const std::string v = "x" + std::to_string(i);
        from.push_back(v + " in Composer");
        where.push_back(prev + ".master = " + v + ".master");
        composers.push_back(v);
        break;
      }
      case 2: {
        const std::string v = "w" + std::to_string(i);
        from.push_back(v + " in Composition");
        where.push_back(v + ".author = " + prev);
        compositions.push_back(v);
        break;
      }
      default: {
        const std::string v = "w" + std::to_string(i);
        from.push_back(v + " in " + prev + ".works");
        compositions.push_back(v);
        break;
      }
    }
  }
  const int sels = static_cast<int>(rng_.Range(1, 2));
  for (int i = 0; i < sels; ++i) {
    if (!compositions.empty() && rng_.Chance(0.4)) {
      where.push_back(
          CompositionPredicate(compositions[rng_.Below(compositions.size())]));
    } else {
      where.push_back(ComposerPredicate(composers[rng_.Below(composers.size())]));
    }
  }
  std::string text = "select [n: x0.name";
  if (!compositions.empty()) text += ", t: " + compositions.back() + ".title";
  text += "] from ";
  for (size_t i = 0; i < from.size(); ++i) text += (i ? ", " : "") + from[i];
  text += " where ";
  for (size_t i = 0; i < where.size(); ++i) {
    text += (i ? " and " : "") + where[i];
  }
  return text;
}

std::string AdhocStream::Recursive() {
  auto selection = [&]() -> std::string {
    switch (rng_.Below(4)) {
      case 0:
        return "j.master.works.instruments.iname = " +
               Quote(kInstruments[rng_.Below(kNumInstruments)]);
      case 1:
        return "j.master.birthyear < " + std::to_string(rng_.Range(1600, 1750));
      case 2:
        return "j.disciple.birthyear >= " +
               std::to_string(rng_.Range(1600, 1750));
      default:
        return "j.master.name = " +
               Quote("composer_" + std::to_string(rng_.Below(composers_)));
    }
  };
  std::string where = selection();
  if (rng_.Chance(0.5)) where += " and " + selection();
  where += " and j.gen >= " + std::to_string(rng_.Range(1, 7));
  return std::string(kInfluencerView) +
         "\nselect [n: j.disciple.name] from j in Influencer where " + where;
}

std::vector<std::string> ServeReadSet(uint64_t seed, uint32_t composers,
                                      size_t n) {
  SeededRng rng(seed ^ 0x5e7eull);
  std::unordered_set<std::string> seen;
  std::vector<std::string> out;
  auto composer = [&] {
    return Quote("composer_" + std::to_string(rng.Below(composers)));
  };
  auto work = [&] {
    return Quote("work_" + std::to_string(rng.Below(3 * composers)));
  };
  while (out.size() < n) {
    std::string text;
    switch (out.size() % 5) {
      case 0:
        text = "select [n: x.name, y: x.birthyear] from x in Composer "
               "where x.name = " + composer();
        break;
      case 1:
        text = "select [t: w.title] from x in Composer, w in x.works "
               "where x.name = " + composer();
        break;
      case 2:
        text = "select [t: w.title, n: w.author.name] from w in Composition "
               "where w.title = " + work();
        break;
      case 3:
        text = "select [n: x.name] from x in Composer where x.birthyear = " +
               std::to_string(rng.Range(1600, 1749));
        break;
      default:
        text = "select [i: i.iname] from w in Composition, i in w.instruments "
               "where w.title = " + work();
        break;
    }
    if (seen.insert(text).second) out.push_back(std::move(text));
  }
  return out;
}

Repoint NextRepoint(SeededRng* rng, uint32_t composers) {
  Repoint r;
  r.composer = 1 + static_cast<uint32_t>(rng->Below(composers - 1));
  r.master = static_cast<uint32_t>(rng->Below(r.composer));
  return r;
}

}  // namespace perfbench
