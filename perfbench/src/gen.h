// Seeded input generators. They use their own RNG, not the library's, so a
// change to the program can never change the benchmark's inputs.
#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

namespace perfbench {

/// splitmix64: small, fast, and fully specified here.
class SeededRng {
 public:
  explicit SeededRng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [lo, hi].
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Below(static_cast<uint64_t>(hi - lo + 1)));
  }
  bool Chance(double p) {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53 < p;
  }

 private:
  uint64_t state_;
};

/// The paper's Fig. 3 query: selective, so pushing the selection through the
/// recursion wins.
extern const char* const kFig3Query;
/// The Fig. 3 shape with an unselective predicate: pushing loses.
extern const char* const kUnselectiveQuery;

/// The adhoc_optimize stream: an endless sequence of distinct ESQL texts
/// over the music schema. Three texts in five are SPJ queries with 2, 3, 4,
/// 2, ... range variables and random path predicates of depth 1-4; the
/// other two are recursive Influencer variants with a random selection and
/// generation bound. The fixed mix keeps the cost of a stream prefix close
/// across seeds. The same (seed, composers) gives the same sequence; a text
/// never repeats within one stream.
class AdhocStream {
 public:
  AdhocStream(uint64_t seed, uint32_t composers);
  std::string Next();

 private:
  std::string Spj(int vars);
  std::string Recursive();
  std::string ComposerPredicate(const std::string& var);
  std::string CompositionPredicate(const std::string& var);

  SeededRng rng_;
  uint32_t composers_;
  uint64_t next_ = 0;
  uint64_t spj_ = 0;
  std::unordered_set<std::string> seen_;
};

/// The serve_rw read set: `n` distinct point and short-path queries that do
/// not read Composer.master, so concurrent re-pointing writes never change
/// their answers. The five query shapes take turns; the seed picks the
/// literals.
std::vector<std::string> ServeReadSet(uint64_t seed, uint32_t composers,
                                      size_t n);

/// One serve_rw write: set composer `composer`'s master to `master`. The
/// generator keeps master < composer, and the music data starts that way,
/// so the lineage graph stays acyclic.
struct Repoint {
  uint32_t composer = 0;
  uint32_t master = 0;
};
Repoint NextRepoint(SeededRng* rng, uint32_t composers);

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
