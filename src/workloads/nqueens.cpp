#include "workloads/nqueens.hpp"

#include <iterator>

namespace spmrt {
namespace workloads {

namespace {

/**
 * Extend the board (whose first @p depth cells live at @p parent_board in
 * the spawning task's frame) by one queen per legal column, in parallel.
 */
void
nqueensRec(TaskContext &tc, const NQueensData &data, Addr parent_board,
           uint32_t depth)
{
    const uint32_t n = data.n;
    if (depth == n) {
        // One striped counter per core: no hot spot on a single cell.
        Core &core = tc.core();
        core.amoAdd(data.solutionCells +
                        core.id() * data.cellStride,
                    1);
        return;
    }
    ForOptions opts;
    opts.grain = 1;
    opts.env.bytes = 12;
    opts.env.wordsPerIter = 1;
    parallelFor(
        tc, 0, n,
        [&data, parent_board, depth, n](TaskContext &btc, int64_t col) {
            Core &core = btc.core();
            // Each placement attempt is a function activation with its
            // own frame holding a private copy of the board — remote
            // scratchpad reads when the task was stolen, and the
            // defining stack traffic of NQueens either way.
            StackFrame call_frame(btc.stack(), 24 + n);
            TaskContext ctc = subContext(btc, call_frame);
            Addr board = call_frame.alloc(n, 4);
            std::vector<uint8_t> cells(depth);
            if (depth > 0) {
                core.read(parent_board, cells.data(), depth);
                core.write(board, cells.data(), depth);
            }
            // Conflict check against all placed queens.
            for (uint32_t row = 0; row < depth; ++row) {
                auto placed = static_cast<int32_t>(cells[row]);
                auto candidate = static_cast<int32_t>(col);
                core.tick(2, 3);
                int32_t horizontal = candidate - placed;
                int32_t vertical =
                    static_cast<int32_t>(depth) -
                    static_cast<int32_t>(row);
                if (horizontal == 0 || horizontal == vertical ||
                    horizontal == -vertical)
                    return; // attacked: prune
            }
            core.store<uint8_t>(board + depth,
                                static_cast<uint8_t>(col));
            nqueensRec(ctc, data, board, depth + 1);
        },
        opts);
}

} // namespace

NQueensData
nqueensSetup(Machine &machine, uint32_t n)
{
    SPMRT_ASSERT(n >= kNQueensMinN && n <= kNQueensMaxN,
                 "nqueens supports n in [%u, %u]", kNQueensMinN,
                 kNQueensMaxN);
    NQueensData data;
    data.n = n;
    data.solutionCells = allocZeroArray<uint8_t>(
        machine, static_cast<uint64_t>(machine.numCores()) *
                     data.cellStride);
    return data;
}

void
nqueensKernel(TaskContext &tc, const NQueensData &data)
{
    Addr empty_board = tc.frame().alloc(data.n, 4);
    nqueensRec(tc, data, empty_board, 0);
}

uint64_t
nqueensResult(Machine &machine, const NQueensData &data)
{
    uint64_t total = 0;
    for (CoreId i = 0; i < machine.numCores(); ++i)
        total += machine.mem().peekAs<uint32_t>(data.solutionCells +
                                                i * data.cellStride);
    return total;
}

uint64_t
nqueensReference(uint32_t n)
{
    static const uint64_t kCounts[] = {
        // n:      4  5   6  7   8   9    10   11    12
        2, 10, 4, 40, 92, 352, 724, 2680, 14200,
    };
    static_assert(std::size(kCounts) == kNQueensMaxN - kNQueensMinN + 1);
    SPMRT_ASSERT(n >= kNQueensMinN && n <= kNQueensMaxN,
                 "no reference for n = %u", n);
    return kCounts[n - kNQueensMinN];
}

} // namespace workloads
} // namespace spmrt
