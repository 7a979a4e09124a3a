#include "apps/awari/game.h"

#include <array>
#include <deque>
#include <utility>

#include "sim/logging.h"

namespace tli::apps::awari {

namespace {

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

bool
inRowOf(int pit, int player)
{
    return pit / pitsPerSide == player;
}

/** compositions[m][s]: ways to place s stones in m pits, C(s+m-1, m-1).
 *  A row is also the prefix sum of the row before it. */
constexpr auto compositions = [] {
    std::array<std::array<std::uint32_t, maxIndexedStones + 1>,
               pitCount + 1>
        c{};
    c[0][0] = 1;
    for (int m = 1; m <= pitCount; ++m) {
        std::uint32_t sum = 0;
        for (int s = 0; s <= maxIndexedStones; ++s) {
            sum += c[m - 1][s];
            c[m][s] = sum;
        }
    }
    return c;
}();

} // namespace

std::uint64_t
encode(const Position &p)
{
    std::uint64_t key = 0;
    for (int i = 0; i < pitCount; ++i) {
        TLI_ASSERT(p.pits[i] < 16, "pit overflow");
        key |= static_cast<std::uint64_t>(p.pits[i]) << (4 * i);
    }
    key |= static_cast<std::uint64_t>(p.toMove) << 48;
    return key;
}

Position
decode(std::uint64_t key)
{
    Position p;
    for (int i = 0; i < pitCount; ++i)
        p.pits[i] = static_cast<std::uint8_t>((key >> (4 * i)) & 0xF);
    p.toMove = static_cast<int>((key >> 48) & 1);
    return p;
}

int
ownerOf(std::uint64_t key, int ranks)
{
    return static_cast<int>(splitmix64(key) % ranks);
}

std::vector<int>
legalMoves(const Position &p)
{
    std::vector<int> moves;
    const int base = p.toMove * pitsPerSide;
    for (int i = base; i < base + pitsPerSide; ++i) {
        if (p.pits[i] > 0)
            moves.push_back(i);
    }
    return moves;
}

Position
applyMove(const Position &p, int pit, int *captured)
{
    TLI_ASSERT(inRowOf(pit, p.toMove) && p.pits[pit] > 0,
               "illegal move from pit ", pit);
    Position next = p;
    int stones = next.pits[pit];
    next.pits[pit] = 0;

    // Sow counterclockwise, skipping the origin pit.
    int idx = pit;
    int last = pit;
    while (stones > 0) {
        idx = (idx + 1) % pitCount;
        if (idx == pit)
            continue;
        ++next.pits[idx];
        --stones;
        last = idx;
    }

    // Capture backwards from the last pit while it holds 2 or 3 in
    // the opponent's row.
    int taken = 0;
    const int opponent = 1 - p.toMove;
    if (inRowOf(last, opponent) &&
        (next.pits[last] == 2 || next.pits[last] == 3)) {
        Position before = next;
        int i = last;
        while (inRowOf(i, opponent) &&
               (next.pits[i] == 2 || next.pits[i] == 3)) {
            taken += next.pits[i];
            next.pits[i] = 0;
            i = (i + pitCount - 1) % pitCount;
        }
        // Grand slam: a capture that empties the opponent's whole row
        // is forfeited (the move stands, nothing is captured).
        int opp_left = 0;
        for (int j = opponent * pitsPerSide;
             j < (opponent + 1) * pitsPerSide; ++j) {
            opp_left += next.pits[j];
        }
        if (opp_left == 0) {
            next = before;
            taken = 0;
        }
    }

    next.toMove = opponent;
    if (captured)
        *captured = taken;
    return next;
}

std::vector<std::uint64_t>
enumerateStage(int stones)
{
    std::vector<std::uint64_t> keys;
    Position p;

    auto gen = [&](auto &&self_fn, int pit, int left) -> void {
        if (pit == pitCount - 1) {
            p.pits[pit] = static_cast<std::uint8_t>(left);
            for (int side = 0; side < 2; ++side) {
                p.toMove = side;
                keys.push_back(encode(p));
            }
            return;
        }
        for (int take = 0; take <= left; ++take) {
            p.pits[pit] = static_cast<std::uint8_t>(take);
            self_fn(self_fn, pit + 1, left - take);
        }
    };
    gen(gen, 0, stones);
    return keys;
}

int
stonesOf(std::uint64_t key)
{
    int s = 0;
    for (int i = 0; i < pitCount; ++i)
        s += static_cast<int>((key >> (4 * i)) & 0xF);
    return s;
}

std::uint32_t
stageRank(std::uint64_t key)
{
    // enumerateStage orders boards lexicographically by pit 0..10 (pit
    // 11 takes the rest), then by side to move. The boards before this
    // one are, per pit i holding v of the `left` stones not yet placed,
    // those with fewer than v stones in pit i: compositions of `left`
    // over pits i..11 minus those with at least v in pit i.
    int left = stonesOf(key);
    TLI_ASSERT(left <= maxIndexedStones, "no dense index for ", left,
               " stones");
    std::uint32_t rank = 0;
    for (int i = 0; i < pitCount - 1; ++i) {
        const int v = static_cast<int>((key >> (4 * i)) & 0xF);
        rank += compositions[pitCount - i][left] -
                compositions[pitCount - i][left - v];
        left -= v;
    }
    return 2 * rank + static_cast<std::uint32_t>((key >> 48) & 1);
}

std::uint32_t
stageSize(int stones)
{
    TLI_ASSERT(stones >= 0 && stones <= maxIndexedStones,
               "no dense index for ", stones, " stones");
    return 2 * compositions[pitCount][stones];
}

void
Solver::solve()
{
    values_.clear();
    counts_.assign(maxStones_ + 1, StageCounts{});
    for (int k = 0; k <= maxStones_; ++k) {
        std::vector<std::uint64_t> keys = enumerateStage(k);
        const int n = static_cast<int>(keys.size());

        std::vector<Value> val(n, Value::unknown);
        // Successors not yet proven WIN (for the opponent); reaching
        // zero proves LOSS.
        std::vector<int> pending(n, 0);
        std::vector<std::vector<int>> preds(n);
        std::deque<int> ready;

        for (int i = 0; i < n; ++i) {
            Position pos = decode(keys[i]);
            std::vector<int> moves = legalMoves(pos);
            workUnits_ += 1 + moves.size();
            if (moves.empty()) {
                val[i] = Value::loss;
                ready.push_back(i);
                continue;
            }
            bool win = false;
            int pend = 0;
            for (int m : moves) {
                int captured = 0;
                Position succ = applyMove(pos, m, &captured);
                std::uint64_t sk = encode(succ);
                if (captured > 0) {
                    Value v = valueOf(sk);
                    if (v == Value::loss)
                        win = true;
                    else if (v != Value::win)
                        ++pend; // a draw successor: never proves LOSS
                } else {
                    preds[stageRank(sk)].push_back(i);
                    ++pend;
                }
            }
            if (win) {
                val[i] = Value::win;
                ready.push_back(i);
            } else {
                pending[i] = pend;
                if (pend == 0) {
                    val[i] = Value::loss;
                    ready.push_back(i);
                }
            }
        }

        // Backward propagation over same-stage edges.
        while (!ready.empty()) {
            int t = ready.front();
            ready.pop_front();
            for (int pr : preds[t]) {
                if (val[pr] != Value::unknown)
                    continue;
                if (val[t] == Value::loss) {
                    val[pr] = Value::win;
                    ready.push_back(pr);
                } else if (val[t] == Value::win) {
                    if (--pending[pr] == 0) {
                        val[pr] = Value::loss;
                        ready.push_back(pr);
                    }
                }
            }
        }

        StageCounts &c = counts_[k];
        for (int i = 0; i < n; ++i) {
            if (val[i] == Value::unknown)
                val[i] = Value::draw;
            switch (val[i]) {
              case Value::win:
                ++c.win;
                break;
              case Value::draw:
                ++c.draw;
                break;
              case Value::loss:
                ++c.loss;
                break;
              default:
                break;
            }
        }
        values_.push_back(std::move(val));
    }
}

Value
Solver::valueOf(std::uint64_t key) const
{
    const auto k = static_cast<std::size_t>(stonesOf(key));
    TLI_ASSERT(k < values_.size(), "unsolved position queried");
    return values_[k][stageRank(key)];
}

double
Solver::digest(const std::vector<StageCounts> &counts)
{
    double d = 0;
    for (std::size_t k = 0; k < counts.size(); ++k) {
        d += (k + 1.0) * (3.0 * counts[k].win + 5.0 * counts[k].draw +
                          7.0 * counts[k].loss);
    }
    return d;
}

} // namespace tli::apps::awari
