/**
 * @file
 * Shared infrastructure for the experiment benches.
 *
 * Each bench binary regenerates one table or figure of the paper (see
 * DESIGN.md's per-experiment index). Inputs are scaled-down structural
 * stand-ins for the paper's datasets so a full run finishes in minutes of
 * host time on one core; set SPMRT_BENCH_QUICK=1 to shrink them further
 * for smoke runs. Absolute cycle counts therefore differ from the paper;
 * the *shape* (who wins, by roughly what factor) is the reproduction
 * target, and EXPERIMENTS.md records both.
 *
 * Every bench reports through the shared Report class: rows of named
 * cells that print as an aligned console table and, with --out=<path>,
 * serialize as machine-readable JSON (schema spmrt-bench-v1). The
 * standard CLI (--list / --filter=<substr> / --out=<path>) is parsed by
 * the Report constructor; benches gate each unit of work on
 * Report::wants() so --list enumerates cases without simulating and
 * --filter narrows a run to matching cases.
 *
 * Setting SPMRT_TRACE_OUT=<path> makes the first cell a bench runs
 * through fleet_util.hpp's runCells record a Chrome trace-event timeline
 * there, viewable in Perfetto. A trace that cannot be written makes
 * Report::finish() exit 1.
 */

#ifndef SPMRT_BENCH_SUPPORT_HPP
#define SPMRT_BENCH_SUPPORT_HPP

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/env.hpp"
#include "common/log.hpp"
#include "parallel/patterns.hpp"
#include "serve/job.hpp"

namespace spmrt {
namespace bench {

/** True when SPMRT_BENCH_QUICK=1 (shrunken smoke-test inputs). */
inline bool
quickMode()
{
    return env::boolValue("SPMRT_BENCH_QUICK");
}

/** Pick between the full-size and quick-mode value. */
template <typename T>
T
scaled(T full, T quick)
{
    return quickMode() ? quick : full;
}

// ---- Trace capture ----------------------------------------------------

/** The SPMRT_TRACE_OUT path, or empty when tracing is not requested. */
inline const std::string &
traceOutPath()
{
    static const std::string path = env::stringValue("SPMRT_TRACE_OUT");
    return path;
}

namespace detail {
/** True once a machine's trace reached SPMRT_TRACE_OUT (first writer
 *  wins). */
inline bool &
traceWritten()
{
    static bool written = false;
    return written;
}

/** True when writing that trace failed; Report::finish() then fails. */
inline bool &
traceFailed()
{
    static bool failed = false;
    return failed;
}
} // namespace detail

// ---- Runtime variants -------------------------------------------------

/** One runtime configuration of Table 1. */
struct Variant
{
    bool isStatic;
    RuntimeConfig cfg;
    const char *label;
};

/** The six configurations, in the paper's column order. */
inline std::vector<Variant>
table1Variants()
{
    RuntimeConfig static_dram;
    static_dram.stackInSpm = false;
    RuntimeConfig static_spm;
    static_spm.stackInSpm = true;
    return {
        {true, static_dram, "static dram-stack"},
        {true, static_spm, "static spm-stack"},
        {false, RuntimeConfig::naive(), "ws dram/dram"},
        {false, RuntimeConfig::queueOnly(), "ws dram-stack/spm-q"},
        {false, RuntimeConfig::stackOnly(), "ws spm-stack/dram-q"},
        {false, RuntimeConfig::full(), "ws spm/spm"},
    };
}

/** The four work-stealing placement variants (Fig. 7 / Fig. 10 order). */
inline std::vector<Variant>
wsVariants()
{
    return {
        {false, RuntimeConfig::naive(), "both DRAM"},
        {false, RuntimeConfig::queueOnly(), "queue in SPM"},
        {false, RuntimeConfig::stackOnly(), "stack in SPM"},
        {false, RuntimeConfig::full(), "both SPM"},
    };
}

/**
 * Point @p req at @p variant: its runtime configuration and static flag,
 * keeping the SPM reserve the workload registry set.
 */
inline void
applyVariant(serve::JobRequest &req, const Variant &variant)
{
    const uint32_t reserve = req.runtime.userSpmReserve;
    req.runtime = variant.cfg;
    req.runtime.userSpmReserve = reserve;
    req.staticRuntime = variant.isStatic;
}

// ---- Reporting --------------------------------------------------------

/**
 * Shared bench reporting: rows of named cells, standard CLI handling.
 *
 * Usage pattern:
 * @code
 *   int main(int argc, char **argv) {
 *       Report report("fig07_fib_variants", argc, argv);
 *       report.comment("Fig. 7: fib across placement variants");
 *       for (const Variant &v : wsVariants()) {
 *           if (!report.wants(v.label))
 *               continue;
 *           ...
 *           report.row()
 *               .cell("variant", v.label)
 *               .cell("cycles", cycles)
 *               .cell("speedup", baseline / cycles);
 *       }
 *       return report.finish();
 *   }
 * @endcode
 *
 * The constructor parses --list (print case names, simulate nothing),
 * --filter=<substr> (run only matching cases), --out=<path> (also write
 * the rows as spmrt-bench-v1 JSON) and --help. finish() prints the
 * aligned table and returns the process exit code (nonzero after any
 * fail(), or when the --out file or the SPMRT_TRACE_OUT trace cannot be
 * written).
 */
class Report
{
  public:
    Report(const char *bench, int argc = 0, char **argv = nullptr)
        : bench_(bench)
    {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--list") {
                list_ = true;
            } else if (arg.rfind("--filter=", 0) == 0) {
                filter_ = arg.substr(9);
            } else if (arg.rfind("--out=", 0) == 0) {
                out_ = arg.substr(6);
            } else if (arg == "--help" || arg == "-h") {
                usage(stdout);
                std::exit(0);
            } else {
                std::fprintf(stderr, "%s: unknown option '%s'\n", bench_,
                             arg.c_str());
                usage(stderr);
                std::exit(2);
            }
        }
    }

    /** True under --list: enumerate cases, simulate nothing. */
    bool listing() const { return list_; }

    /**
     * Gate one unit of work. Under --list, prints @p case_name and
     * returns false; under --filter, returns whether it matches.
     */
    bool
    wants(const std::string &case_name)
    {
        if (list_) {
            std::printf("%s\n", case_name.c_str());
            return false;
        }
        return filter_.empty() ||
               case_name.find(filter_) != std::string::npos;
    }

    /** Print one "# ..."-prefixed commentary line (suppressed by --list). */
    void
    comment(const char *fmt, ...) __attribute__((format(printf, 2, 3)))
    {
        if (list_)
            return;
        va_list args;
        va_start(args, fmt);
        std::printf("# ");
        std::vprintf(fmt, args);
        std::printf("\n");
        va_end(args);
    }

    /** Record a failure: printed immediately, makes finish() nonzero. */
    void
    fail(const char *fmt, ...) __attribute__((format(printf, 2, 3)))
    {
        failed_ = true;
        va_list args;
        va_start(args, fmt);
        std::fprintf(stderr, "FAIL: ");
        std::vfprintf(stderr, fmt, args);
        std::fprintf(stderr, "\n");
        va_end(args);
    }

    /** True after any fail(). */
    bool failed() const { return failed_; }

    /** Start a new result row. */
    Report &
    row()
    {
        rows_.emplace_back();
        return *this;
    }

    /** @name Cell setters (chainable; apply to the latest row)
     *  @{
     */
    template <typename T,
              std::enable_if_t<std::is_integral_v<T> &&
                                   !std::is_same_v<T, bool>,
                               int> = 0>
    Report &
    cell(const char *key, T value)
    {
        Cell c;
        c.kind = Cell::Kind::Int;
        c.number = static_cast<double>(value);
        c.integer = static_cast<int64_t>(value);
        return addCell(key, std::move(c));
    }

    Report &
    cell(const char *key, double value)
    {
        Cell c;
        c.kind = Cell::Kind::Real;
        c.number = value;
        return addCell(key, std::move(c));
    }

    Report &
    cell(const char *key, bool value)
    {
        Cell c;
        c.kind = Cell::Kind::Flag;
        c.integer = value ? 1 : 0;
        return addCell(key, std::move(c));
    }

    Report &
    cell(const char *key, const std::string &value)
    {
        Cell c;
        c.kind = Cell::Kind::Text;
        c.text = value;
        return addCell(key, std::move(c));
    }

    Report &
    cell(const char *key, const char *value)
    {
        return cell(key, std::string(value));
    }
    /** @} */

    /**
     * Print the table (unless empty), write the JSON rows when --out was
     * given, and return the process exit code.
     */
    int
    finish()
    {
        if (list_)
            return 0;
        printTable();
        if (!out_.empty() && !writeJson())
            fail("cannot write %s", out_.c_str());
        if (detail::traceFailed())
            fail("cannot write trace %s", traceOutPath().c_str());
        return failed_ ? 1 : 0;
    }

  private:
    struct Cell
    {
        enum class Kind
        {
            Int,
            Real,
            Text,
            Flag
        };
        Kind kind = Kind::Text;
        double number = 0;
        int64_t integer = 0;
        std::string text;
    };

    using Row = std::vector<std::pair<std::string, Cell>>;

    Report &
    addCell(const char *key, Cell cell)
    {
        if (rows_.empty())
            rows_.emplace_back();
        Row &row = rows_.back();
        for (auto &entry : row) {
            if (entry.first == key) {
                entry.second = std::move(cell);
                return *this;
            }
        }
        row.emplace_back(key, std::move(cell));
        bool known = false;
        for (const std::string &column : columns_)
            known = known || column == key;
        if (!known)
            columns_.push_back(key);
        return *this;
    }

    static std::string
    render(const Cell &cell)
    {
        char buffer[64];
        switch (cell.kind) {
          case Cell::Kind::Int:
            std::snprintf(buffer, sizeof(buffer), "%" PRId64,
                          cell.integer);
            return buffer;
          case Cell::Kind::Real:
            std::snprintf(buffer, sizeof(buffer), "%.2f", cell.number);
            return buffer;
          case Cell::Kind::Flag:
            return cell.integer != 0 ? "yes" : "no";
          case Cell::Kind::Text:
            break;
        }
        return cell.text;
    }

    const Cell *
    find(const Row &row, const std::string &key) const
    {
        for (const auto &entry : row)
            if (entry.first == key)
                return &entry.second;
        return nullptr;
    }

    void
    printTable() const
    {
        if (rows_.empty())
            return;
        std::vector<size_t> widths;
        std::vector<bool> textual;
        for (const std::string &column : columns_) {
            size_t width = column.size();
            bool is_text = false;
            for (const Row &row : rows_) {
                if (const Cell *cell = find(row, column)) {
                    width = std::max(width, render(*cell).size());
                    is_text = is_text || cell->kind == Cell::Kind::Text;
                }
            }
            widths.push_back(width);
            textual.push_back(is_text);
        }
        std::printf("\n");
        for (size_t c = 0; c < columns_.size(); ++c)
            std::printf("%s%-*s", c == 0 ? "" : "  ",
                        static_cast<int>(widths[c]), columns_[c].c_str());
        std::printf("\n");
        for (const Row &row : rows_) {
            for (size_t c = 0; c < columns_.size(); ++c) {
                const Cell *cell = find(row, columns_[c]);
                std::string value = cell != nullptr ? render(*cell) : "";
                // Left-align text columns, right-align numeric ones.
                std::printf(textual[c] ? "%s%-*s" : "%s%*s",
                            c == 0 ? "" : "  ",
                            static_cast<int>(widths[c]), value.c_str());
            }
            std::printf("\n");
        }
        std::fflush(stdout);
    }

    static std::string
    jsonValue(const Cell &cell)
    {
        char buffer[64];
        switch (cell.kind) {
          case Cell::Kind::Int:
            std::snprintf(buffer, sizeof(buffer), "%" PRId64,
                          cell.integer);
            return buffer;
          case Cell::Kind::Real:
            std::snprintf(buffer, sizeof(buffer), "%.17g", cell.number);
            return buffer;
          case Cell::Kind::Flag:
            return cell.integer != 0 ? "true" : "false";
          case Cell::Kind::Text:
            break;
        }
        std::string quoted = "\"";
        quoted += log::jsonEscape(cell.text);
        quoted += '"';
        return quoted;
    }

    /** Write the rows to --out; false if the file cannot be written. */
    bool
    writeJson() const
    {
        std::string json = log::format(
            "{\"schema\": \"spmrt-bench-v1\", \"bench\": \"%s\", "
            "\"quick\": %s, \"rows\": [",
            log::jsonEscape(bench_).c_str(), quickMode() ? "true" : "false");
        for (size_t r = 0; r < rows_.size(); ++r) {
            json += r == 0 ? "\n  {" : ",\n  {";
            const Row &row = rows_[r];
            for (size_t c = 0; c < row.size(); ++c)
                json += log::format("%s\"%s\": %s", c == 0 ? "" : ", ",
                                    log::jsonEscape(row[c].first).c_str(),
                                    jsonValue(row[c].second).c_str());
            json += "}";
        }
        json += "\n]}\n";
        if (!log::writeText(out_, json, "bench JSON"))
            return false;
        std::printf("# wrote %s\n", out_.c_str());
        return true;
    }

    void
    usage(FILE *stream) const
    {
        std::fprintf(stream,
                     "usage: %s [--list] [--filter=<substr>] "
                     "[--out=<path>]\n"
                     "  --list             print case names, run nothing\n"
                     "  --filter=<substr>  run only matching cases\n"
                     "  --out=<path>       also write rows as JSON "
                     "(schema spmrt-bench-v1)\n"
                     "environment: SPMRT_BENCH_QUICK=1 shrinks inputs; "
                     "SPMRT_TRACE_OUT=<path>\ncaptures a Chrome trace of "
                     "the first run (view in Perfetto)\n",
                     bench_);
    }

    const char *bench_;
    bool list_ = false;
    bool failed_ = false;
    std::string filter_;
    std::string out_;
    std::vector<std::string> columns_; ///< first-seen column order
    std::vector<Row> rows_;
};

} // namespace bench
} // namespace spmrt

#endif // SPMRT_BENCH_SUPPORT_HPP
