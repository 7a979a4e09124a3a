/**
 * @file
 * The Awari (Oware-rules) game model and the sequential retrograde
 * analysis solver: win/draw/loss endgame databases staged by the
 * number of stones on the board, computed backwards from terminal
 * positions (paper §3.1: Bal & Allis style retrograde analysis).
 *
 * Rules implemented: 12 pits, six per player; sowing counterclockwise
 * skipping the origin pit; captures of 2 or 3 in the opponent's row,
 * extending backwards; grand-slam captures forfeited; a player with
 * no legal move loses. (The tournament "feeding" obligation is not
 * modelled; it does not change the communication structure.)
 */

#ifndef TWOLAYER_APPS_AWARI_GAME_H_
#define TWOLAYER_APPS_AWARI_GAME_H_

#include <array>
#include <cstdint>
#include <vector>

namespace tli::apps::awari {

constexpr int pitCount = 12;
constexpr int pitsPerSide = 6;

/** A position: stones per pit plus the side to move (0 or 1). */
struct Position
{
    std::array<std::uint8_t, pitCount> pits{};
    int toMove = 0;

    int
    stonesOnBoard() const
    {
        int s = 0;
        for (auto p : pits)
            s += p;
        return s;
    }
};

/** Game-theoretic value for the side to move. */
enum class Value : std::int8_t
{
    unknown = 0,
    win = 1,
    draw = 2,
    loss = 3,
};

/** Packed 49-bit key: 4 bits per pit + side-to-move bit. */
std::uint64_t encode(const Position &p);
Position decode(std::uint64_t key);

/** Owner of a state in a p-rank partition (splitmix hash). */
int ownerOf(std::uint64_t key, int ranks);

/**
 * Apply the move sowing from @p pit (absolute index, must belong to
 * the side to move and be non-empty). Returns the successor position
 * and the number of stones captured.
 */
Position applyMove(const Position &p, int pit, int *captured);

/** Legal source pits for the side to move. */
std::vector<int> legalMoves(const Position &p);

/** All positions with exactly @p stones stones, both sides to move. */
std::vector<std::uint64_t> enumerateStage(int stones);

/** Largest stage the dense position index covers: every pit of a
 *  15-stone board fits encode()'s 4-bit field. */
constexpr int maxIndexedStones = 15;

/** Stones on the board of the position @p key encodes. */
int stonesOf(std::uint64_t key);

/**
 * Dense index of @p key within its stage: the position of @p key in
 * enumerateStage(stonesOf(key)). Computed from a binomial prefix
 * table; asserts that the stage is at most maxIndexedStones.
 */
std::uint32_t stageRank(std::uint64_t key);

/** Number of positions with @p stones stones: enumerateStage's size. */
std::uint32_t stageSize(int stones);

/** W/D/L tallies of one stage (the verification digest). */
struct StageCounts
{
    std::int64_t win = 0;
    std::int64_t draw = 0;
    std::int64_t loss = 0;

    bool
    operator==(const StageCounts &o) const
    {
        return win == o.win && draw == o.draw && loss == o.loss;
    }
};

/**
 * Sequential retrograde solver: computes the value of every position
 * with up to maxStones stones, stage by stage.
 */
class Solver
{
  public:
    explicit Solver(int max_stones) : maxStones_(max_stones) {}

    /** Solve all stages; safe to call once. */
    void solve();

    /** Value of a solved position; asserts if its stage is unsolved. */
    Value valueOf(std::uint64_t key) const;

    const std::vector<StageCounts> &stageCounts() const
    {
        return counts_;
    }

    /** Total successor-generation work units (for cost calibration). */
    std::uint64_t workUnits() const { return workUnits_; }

    /** Scalar digest over all stage tallies. */
    static double digest(const std::vector<StageCounts> &counts);

  private:
    int maxStones_;
    /** Per stage, each position's value indexed by stageRank(). */
    std::vector<std::vector<Value>> values_;
    std::vector<StageCounts> counts_;
    std::uint64_t workUnits_ = 0;
};

} // namespace tli::apps::awari

#endif // TWOLAYER_APPS_AWARI_GAME_H_
