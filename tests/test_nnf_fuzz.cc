/**
 * @file
 * Fuzz and malformed-input harness for the `.nnf` streaming parser.
 *
 * The parser feeds untrusted text into CSR array construction, so it
 * gets the same adversarial treatment as the sys/ wire decoder: a
 * table of hand-written malformed inputs (truncated lines, dangling
 * child references, declared counts large enough to wrap size
 * computations, non-decomposable conjunctions, INT64_MIN literals) and
 * a seeded random-garbage fuzz loop.  Every input must produce a clean
 * NnfError with a 1-based line number through BOTH tolerant entry
 * points — parseC2dFormat and streamNnfToFlat — and never crash,
 * which the CI sanitizer legs check under ASan/UBSan.
 */

#include <gtest/gtest.h>
#include <sstream>
#include <string>
#include <vector>

#include "logic/knowledge.h"
#include "logic/nnf_io.h"
#include "pc/from_logic.h"
#include "util/rng.h"

namespace reason {
namespace logic {
namespace {

/** Run one input through both tolerant entry points. */
struct ParseOutcome
{
    bool textOk = false;
    NnfError textErr;
    bool streamOk = false;
    NnfError streamErr;
};

ParseOutcome
parseBoth(const std::string &text, uint32_t weight_vars = 64)
{
    ParseOutcome out;
    parseC2dFormat(text, &out.textErr);
    out.textOk = out.textErr.ok();
    std::istringstream in(text);
    pc::FlatCircuit flat;
    out.streamOk = pc::streamNnfToFlat(
        in, LitWeights::uniform(weight_vars), &flat, &out.streamErr);
    return out;
}

TEST(NnfFuzz, MalformedCorpus)
{
    struct Case
    {
        const char *name;
        const char *text;
    };
    const Case kCorpus[] = {
        {"empty input", ""},
        {"garbage header", "garbage\n"},
        {"header missing counts", "nnf 2\n"},
        {"non-numeric count", "nnf two 0 2\n"},
        {"negative count", "nnf -1 0 2\n"},
        {"node count overflows id domain", "nnf 4294967295 0 2\nL 1\n"},
        {"node count overflows int64", "nnf 18446744073709551615 0 2\n"},
        {"edge count overflows id domain", "nnf 1 4294967295 2\nL 1\n"},
        {"var count overflows lit domain", "nnf 1 0 2147483648\nL 1\n"},
        {"trailing header tokens", "nnf 1 0 2 junk\nL 1\n"},
        {"truncated node line", "nnf 2 1 2\nL 1\nA 1\n"},
        {"dangling child id", "nnf 2 1 2\nL 1\nA 1 5\n"},
        {"self reference", "nnf 1 1 2\nA 1 0\n"},
        {"forward reference", "nnf 2 1 2\nA 1 1\nL 1\n"},
        {"huge declared arity", "nnf 2 10 2\nL 1\nA 9999999 0\n"},
        {"arity exceeds edge budget", "nnf 3 2 2\nL 1\nL 2\nA 3 0 1 0\n"},
        {"unknown node tag", "nnf 1 0 2\nX 1\n"},
        {"zero literal", "nnf 1 0 2\nL 0\n"},
        {"literal out of var range", "nnf 1 0 2\nL 5\n"},
        {"negated literal out of range", "nnf 1 0 2\nL -5\n"},
        {"INT64_MIN literal", "nnf 1 0 2\nL -9223372036854775808\n"},
        {"Or with one child", "nnf 2 1 2\nL 1\nO 1 1 0\n"},
        {"Or with three children",
         "nnf 4 3 2\nL 1\nL 2\nL -1\nO 1 3 0 1 2\n"},
        {"Or without decision var", "nnf 3 2 2\nL 1\nL -1\nO 0 2 0 1\n"},
        {"Or decision out of range", "nnf 3 2 2\nL 1\nL -1\nO 9 2 0 1\n"},
        {"negative Or decision", "nnf 3 2 2\nL 1\nL -1\nO -1 2 0 1\n"},
        {"non-decomposable And", "nnf 3 2 2\nL 1\nL 1\nA 2 0 1\n"},
        {"trailing node tokens", "nnf 1 0 2\nA 0 junk\n"},
        {"fewer nodes than declared", "nnf 3 0 2\nL 1\n"},
        {"more nodes than declared", "nnf 1 0 2\nL 1\nL 2\n"},
        {"fewer edges than declared", "nnf 1 7 2\nL 1\n"},
        {"declared zero nodes", "nnf 0 0 2\n"},
    };
    for (const Case &c : kCorpus) {
        SCOPED_TRACE(c.name);
        ParseOutcome out = parseBoth(c.text);
        EXPECT_FALSE(out.textOk);
        EXPECT_FALSE(out.textErr.ok());
        EXPECT_FALSE(out.textErr.message.empty());
        EXPECT_FALSE(out.streamOk);
        EXPECT_FALSE(out.streamErr.ok());
        EXPECT_FALSE(out.streamErr.message.empty());
        // Errors carry a 1-based line unless input ended before the
        // first line (empty input reports line 0 by contract).
        if (*c.text != '\0') {
            EXPECT_GE(out.textErr.line, 1u);
            EXPECT_GE(out.streamErr.line, 1u);
        }
    }
}

TEST(NnfFuzz, WellFormedCorpusStillParses)
{
    // The flip side: inputs near the malformed corpus that ARE legal
    // must keep parsing, so the hardening is not over-tight.
    const char *kGood[] = {
        "nnf 1 0 2\nL 1\n",
        "nnf 1 0 2\nA 0\n",             // constant TRUE
        "nnf 1 0 2\nO 0 0\n",           // constant FALSE
        "nnf 3 2 2\nL 1\nL 2\nA 2 0 1\n",
        "nnf 3 2 2\nL 1\nL -1\nO 1 2 0 1\n",
        "nnf 2 0 2\n\nL 1\n \t \nL -2\n", // blank lines are skipped
    };
    for (const char *text : kGood) {
        SCOPED_TRACE(text);
        ParseOutcome out = parseBoth(text);
        EXPECT_TRUE(out.textOk) << out.textErr.message;
        EXPECT_TRUE(out.streamOk) << out.streamErr.message;
    }
}

TEST(NnfFuzz, ErrorLinesPointAtTheOffendingLine)
{
    NnfError err;
    parseC2dFormat("nnf 3 2 2\nL 1\nL 2\nA 2 0 9\n", &err);
    ASSERT_FALSE(err.ok());
    EXPECT_EQ(err.line, 4u);
    parseC2dFormat("nnf 2 1 2\nL 1\nA 1 5\n", &err);
    ASSERT_FALSE(err.ok());
    EXPECT_EQ(err.line, 3u);
    parseC2dFormat("bogus\n", &err);
    ASSERT_FALSE(err.ok());
    EXPECT_EQ(err.line, 1u);
}

TEST(NnfFuzz, RandomGarbage)
{
    // 200 trials of pure random text drawn from a pool biased toward
    // nnf syntax, so many trials get past the header and into node
    // parsing.  The only contract: no crash, and failures carry a
    // message.  The rare accidentally-valid input must round-trip.
    const std::string pool = "nnfAOL-0123456789 \n\t";
    Rng rng(0xf22);
    for (int trial = 0; trial < 200; ++trial) {
        std::string text;
        size_t len = size_t(rng.uniformInt(0, 160));
        for (size_t i = 0; i < len; ++i)
            text += pool[size_t(rng.uniformInt(0, int64_t(pool.size()) - 1))];
        ParseOutcome out = parseBoth(text);
        if (!out.textOk) {
            EXPECT_FALSE(out.textErr.message.empty()) << text;
        }
        if (!out.streamOk) {
            EXPECT_FALSE(out.streamErr.message.empty()) << text;
        }
    }
}

TEST(NnfFuzz, StructuredGarbage)
{
    // Valid header, random node lines: exercises every branch of the
    // node parser far more often than raw garbage does.
    Rng rng(31337);
    for (int trial = 0; trial < 200; ++trial) {
        uint32_t nodes = uint32_t(rng.uniformInt(1, 12));
        uint32_t edges = uint32_t(rng.uniformInt(0, 20));
        std::string text = "nnf " + std::to_string(nodes) + " " +
                           std::to_string(edges) + " 4\n";
        for (uint32_t i = 0; i < nodes; ++i) {
            switch (rng.uniformInt(0, 2)) {
              case 0:
                text += "L " + std::to_string(rng.uniformInt(-6, 6));
                break;
              case 1: {
                int64_t k = rng.uniformInt(0, 3);
                text += "A " + std::to_string(k);
                for (int64_t c = 0; c < k; ++c)
                    text.append(" ").append(
                        std::to_string(rng.uniformInt(0, nodes)));
                break;
              }
              default: {
                int64_t k = rng.uniformInt(0, 3);
                text += "O " + std::to_string(rng.uniformInt(-1, 5)) +
                        " " + std::to_string(k);
                for (int64_t c = 0; c < k; ++c)
                    text.append(" ").append(
                        std::to_string(rng.uniformInt(0, nodes)));
                break;
              }
            }
            text += "\n";
        }
        ParseOutcome out = parseBoth(text, 8);
        // Accidentally-valid graphs must agree between the two routes.
        if (out.textOk && out.streamOk) {
            DnnfGraph g = parseC2dFormat(text);
            pc::FlatCircuit direct =
                pc::flatFromDnnf(g, LitWeights::uniform(8));
            std::istringstream in(text);
            pc::FlatCircuit streamed;
            NnfError err;
            ASSERT_TRUE(pc::streamNnfToFlat(in, LitWeights::uniform(8),
                                            &streamed, &err));
            EXPECT_EQ(pc::flatLogWmc(streamed), pc::flatLogWmc(direct))
                << text;
        }
    }
}

} // namespace
} // namespace logic
} // namespace reason
