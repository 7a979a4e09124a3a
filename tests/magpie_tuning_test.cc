/**
 * @file
 * TuningTable mechanics (nearest-gap and nearest-size selection in
 * log space, canonical content hashing), the tli-tuning-v1 JSON
 * persistence layer (store/load round trip plus rejection of missing,
 * mis-schema'd, corrupted and tampered table files), and the tuned
 * winners EXPERIMENTS.md reports on the paper's machine.
 */

#include "exec/tuning_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "bench/collective_timing.h"
#include "magpie/tuning.h"
#include "net/config.h"

namespace tli {
namespace {

using magpie::Choice;
using magpie::kOpCount;
using magpie::Op;
using magpie::TuningTable;

/** A finalized table with one all-magpie gap point. */
TuningTable
baseTable()
{
    TuningTable t;
    t.clusters = 2;
    t.procsPerCluster = 2;
    t.gaps = {{6.0, 0.5}};
    t.cells.resize(1);
    for (int i = 0; i < kOpCount; ++i)
        t.cells[0][i].push_back({0, Choice::magpie()});
    t.finalize();
    return t;
}

TEST(TuningTable, ChoosePicksNearestSizeInLogSpace)
{
    TuningTable t = baseTable();
    auto &cells = t.cells[0][static_cast<int>(Op::bcast)];
    cells = {{64, Choice::flat()},
             {1024, Choice::magpie()},
             {65536, Choice::segmented(8192)}};
    t.finalize();

    EXPECT_EQ(t.choose(0, Op::bcast, 64), Choice::flat());
    EXPECT_EQ(t.choose(0, Op::bcast, 100), Choice::flat());
    EXPECT_EQ(t.choose(0, Op::bcast, 1 << 20),
              Choice::segmented(8192));
    // 8192 is the geometric mean of 1024 and 65536: an exact log-space
    // tie resolves to the smaller trained size.
    EXPECT_EQ(t.choose(0, Op::bcast, 8192), Choice::magpie());
    // Zero-byte payloads clamp to 1 byte rather than blowing up.
    EXPECT_EQ(t.choose(0, Op::bcast, 0), Choice::flat());
}

TEST(TuningTable, NearestGapUsesLogDistance)
{
    TuningTable t = baseTable();
    t.gaps = {{6.0, 0.5}, {0.1, 100.0}};
    t.cells.resize(2);
    for (int i = 0; i < kOpCount; ++i)
        t.cells[1][i].push_back({0, Choice::magpie()});
    t.finalize();

    EXPECT_EQ(t.nearestGap(6.0, 0.5), 0);
    EXPECT_EQ(t.nearestGap(5.0, 1.0), 0);
    EXPECT_EQ(t.nearestGap(0.1, 100.0), 1);
    EXPECT_EQ(t.nearestGap(0.3, 20.0), 1);
}

TEST(TuningTable, ContentHashTracksDecisionsNotInsertionOrder)
{
    TuningTable a = baseTable();
    auto &ac = a.cells[0][static_cast<int>(Op::reduce)];
    ac = {{64, Choice::flat()}, {4096, Choice::segmented(1024)}};
    a.finalize();

    // Same decisions inserted in the opposite order: finalize() sorts,
    // so the canonical text — and therefore the hash — is identical.
    TuningTable b = baseTable();
    auto &bc = b.cells[0][static_cast<int>(Op::reduce)];
    bc = {{4096, Choice::segmented(1024)}, {64, Choice::flat()}};
    b.finalize();
    EXPECT_EQ(a.contentHash(), b.contentHash());

    // One flipped decision changes the hash.
    TuningTable c = baseTable();
    auto &cc = c.cells[0][static_cast<int>(Op::reduce)];
    cc = {{64, Choice::magpie()}, {4096, Choice::segmented(1024)}};
    c.finalize();
    EXPECT_NE(a.contentHash(), c.contentHash());
}

TEST(TuningIo, StoreLoadRoundTripPreservesEveryDecision)
{
    TuningTable t = baseTable();
    t.gaps = {{6.0, 0.5}, {0.1, 100.0}};
    t.cells.resize(2);
    for (int i = 0; i < kOpCount; ++i)
        t.cells[1][i].push_back({0, Choice::flat()});
    auto &bcast = t.cells[0][static_cast<int>(Op::bcast)];
    bcast = {{72, Choice::magpie()}, {16392, Choice::segmented(8192)}};
    t.finalize();

    const std::string path = "tuning_roundtrip_test.json";
    exec::storeTuningTable(path, t);
    std::string err;
    auto loaded = exec::loadTuningTable(path, &err);
    ASSERT_TRUE(loaded) << err;
    EXPECT_EQ(loaded->contentHash(), t.contentHash());
    EXPECT_EQ(loaded->canonicalText(), t.canonicalText());
    EXPECT_EQ(loaded->clusters, 2);
    EXPECT_EQ(loaded->procsPerCluster, 2);
    EXPECT_EQ(loaded->choose(0, Op::bcast, 16392),
              Choice::segmented(8192));
    EXPECT_EQ(loaded->choose(1, Op::bcast, 16392), Choice::flat());
    std::remove(path.c_str());
}

/** Store baseTable(), apply one textual edit, and try to load it. */
std::string
loadAfterEdit(const std::string &from, const std::string &to)
{
    const std::string path = "tuning_tampered_test.json";
    exec::storeTuningTable(path, baseTable());
    std::stringstream buf;
    {
        std::ifstream in(path);
        buf << in.rdbuf();
    }
    std::string text = buf.str();
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    text.replace(at, from.size(), to);
    {
        std::ofstream out(path, std::ios::trunc);
        out << text;
    }
    std::string err;
    auto loaded = exec::loadTuningTable(path, &err);
    EXPECT_FALSE(loaded) << "tampered table loaded anyway";
    std::remove(path.c_str());
    return err;
}

TEST(TuningIo, LoadRejectsMissingFile)
{
    std::string err;
    auto loaded =
        exec::loadTuningTable("no_such_tuning_table.json", &err);
    EXPECT_FALSE(loaded);
    EXPECT_FALSE(err.empty());
}

TEST(TuningIo, LoadRejectsWrongSchema)
{
    const std::string err =
        loadAfterEdit(exec::kTuningSchema, "tli-tuning-v9");
    EXPECT_NE(err.find("tli-tuning"), std::string::npos) << err;
}

TEST(TuningIo, LoadRejectsUnknownVariant)
{
    const std::string err = loadAfterEdit("\"magpie\"", "\"turbo\"");
    EXPECT_NE(err.find("variant"), std::string::npos) << err;
}

TEST(TuningIo, LoadRejectsMissingOperation)
{
    const std::string err =
        loadAfterEdit("\"barrier\"", "\"barrierX\"");
    EXPECT_NE(err.find("barrier"), std::string::npos) << err;
}

TEST(TuningIo, LoadRejectsContentHashMismatch)
{
    // Flip a decision without refreshing the recorded hash: the loader
    // recomputes and refuses the inconsistent file.
    const std::string err = loadAfterEdit("\"magpie\"", "\"flat\"");
    EXPECT_NE(err.find("content_hash"), std::string::npos) << err;
}

TEST(TuningIo, WriterEmbedsSchemaAndHash)
{
    TuningTable t = baseTable();
    std::ostringstream out;
    exec::writeTuningTable(out, t);
    const std::string text = out.str();
    EXPECT_NE(text.find(exec::kTuningSchema), std::string::npos);
    char hex[32];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(t.contentHash()));
    EXPECT_NE(text.find(hex), std::string::npos);
}

/** The fastest of the tuner's candidate variants for one cell. */
struct TunedCell
{
    double magpieS = 0; ///< static MagPIe completion (virtual s)
    double bestS = 0;   ///< the winner's completion
    Choice best = Choice::magpie();
};

/**
 * Time @p op at @p elems doubles per rank on the 4x8 machine at
 * 1 MB/s / 10 ms under each of magpie::tuningCandidates(), which lists
 * MagPIe first, so a tie keeps it.
 */
TunedCell
tuneCell(const std::string &op, int elems)
{
    const net::FabricParams params =
        net::Profile::das(1.0, 10.0).params();
    const Op o = *magpie::parseOp(op);
    TunedCell cell;
    for (const Choice &c : magpie::tuningCandidates(o)) {
        magpie::CollectivePolicy policy =
            magpie::CollectivePolicy::magpie();
        policy.set(o, c);
        const double t =
            bench::timeCollective(op, policy, params, 4, 8, elems);
        if (c == Choice::magpie()) {
            cell.magpieS = cell.bestS = t;
        } else if (t < cell.bestS) {
            cell.bestS = t;
            cell.best = c;
        }
    }
    return cell;
}

TEST(TunedCollectives, ReproduceTheExperimentsTable)
{
    // 16 KiB payloads: the winners and times of EXPERIMENTS.md's
    // "Tuned collectives" table (virtual ms, rounded as printed).
    struct Row
    {
        const char *op;
        Choice winner;
        double magpieMs;
        double winnerMs;
    };
    for (const Row &row : {Row{"bcast", Choice::segmented(8192), 33.1,
                               30.4},
                           Row{"reduce", Choice::segmented(8192), 33.1,
                               30.4},
                           Row{"allreduce", Choice::segmented(8192),
                               66.2, 60.7},
                           Row{"gather", Choice::flat(), 182.3,
                               166.3}}) {
        SCOPED_TRACE(row.op);
        const TunedCell cell = tuneCell(row.op, 2048);
        EXPECT_EQ(cell.best.spec(), row.winner.spec());
        EXPECT_LT(cell.bestS, cell.magpieS);
        EXPECT_NEAR(1e3 * cell.magpieS, row.magpieMs, 0.05);
        EXPECT_NEAR(1e3 * cell.bestS, row.winnerMs, 0.05);
    }
    // Latency-bound cells keep MagPIe: the barrier and every 64 B
    // payload.
    EXPECT_EQ(tuneCell("barrier", 0).best.spec(), "magpie");
    for (const char *op : {"bcast", "reduce", "allreduce", "gather"}) {
        SCOPED_TRACE(op);
        EXPECT_EQ(tuneCell(op, 8).best.spec(), "magpie");
    }
}

} // namespace
} // namespace tli
