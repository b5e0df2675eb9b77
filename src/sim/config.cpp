#include "sim/config.hpp"

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "common/env.hpp"
#include "common/log.hpp"

namespace spmrt {

namespace {

bool
isPowerOfTwo(uint64_t value)
{
    return value != 0 && (value & (value - 1)) == 0;
}

const char *
placementName(LlcPlacement placement)
{
    switch (placement) {
      case LlcPlacement::TopBottom:
        return "tb";
      case LlcPlacement::Top:
        return "t";
      case LlcPlacement::Bottom:
        return "b";
    }
    return "?";
}

/** A failed validate() check: a setup error, never a simulation bug. */
[[noreturn]] void
invalid(const std::string &what)
{
    throw std::runtime_error("machine config: " + what);
}

} // namespace

void
MachineConfig::validate() const
{
    if (meshCols < 1 || meshRows < 1)
        invalid(log::format("%ux%u mesh has a zero dimension", meshCols,
                            meshRows));
    if (rucheX != 0 && rucheX >= meshCols)
        invalid(log::format("ruche factor X=%u >= mesh width %u (no "
                            "straight is long enough for an express hop)",
                            rucheX, meshCols));
    if (rucheY != 0 && rucheY >= meshRows)
        invalid(log::format("ruche factor Y=%u >= mesh height %u (no "
                            "straight is long enough for an express hop)",
                            rucheY, meshRows));

    if (spmBytes < 1)
        invalid("zero SPM bytes");
    if (!isPowerOfTwo(spmWindowBytes))
        invalid(log::format("SPM window stride %u is not a power of two",
                            spmWindowBytes));
    if (spmBytes > spmWindowBytes)
        invalid(log::format("%u SPM bytes exceed the %u-byte window "
                            "stride", spmBytes, spmWindowBytes));

    if (llcBanks < 1)
        invalid("zero LLC banks");
    if (llcBanks % llcEdgeCount() != 0)
        invalid(log::format("%u LLC banks not divisible across %u edge "
                            "rows", llcBanks, llcEdgeCount()));
    if (llcWays < 1 || llcSetsPerBank < 1)
        invalid(log::format("degenerate LLC shape (%u ways, %u "
                            "sets/bank)", llcWays, llcSetsPerBank));

    if (dramChannels < 1)
        invalid("zero DRAM channels");
    if (dramBytesPerCycle < 1)
        invalid("zero DRAM bandwidth");
    if (dramBytes < 1)
        invalid("zero DRAM capacity");

    if (hostStackBytes < 16 * 1024)
        invalid(log::format("%u-byte host stacks are too small for a "
                            "coroutine frame", hostStackBytes));

    // Address-space fit: the SPM region, then DRAM, must close below
    // 2^32 (the PGAS is a 32-bit space).
    if (spmRegionEnd() > 0xffff'ffffull + 1)
        invalid(log::format("%u SPM windows of %u bytes overflow the "
                            "32-bit address space", numCores(),
                            spmWindowBytes));
    if (dramBase() + dramBytes > 0xffff'ffffull + 1)
        invalid(log::format("DRAM region [0x%llx, +%llu) overflows the "
                            "32-bit address space",
                            static_cast<unsigned long long>(dramBase()),
                            static_cast<unsigned long long>(dramBytes)));
}

std::string
MachineConfig::geometry() const
{
    return log::format(
        "%ux%u-rx%u-ry%u-llc%u%s-d%ux%u-spm%uw%u", meshCols, meshRows,
        rucheX, rucheY, llcBanks, placementName(llcPlacement),
        dramChannels, dramBytesPerCycle, spmBytes, spmWindowBytes);
}

std::string
MachineConfig::key() const
{
    return log::format(
        "%ux%u/spm%u/w%u/rx%u/ry%u/llc%u/pl%u/lw%u/ls%u/bw%u/ch%u/db%llu/"
        "hs%u",
        meshCols, meshRows, spmBytes, spmWindowBytes, rucheX, rucheY,
        llcBanks, static_cast<unsigned>(llcPlacement), llcWays,
        llcSetsPerBank, dramBytesPerCycle, dramChannels,
        static_cast<unsigned long long>(dramBytes), hostStackBytes);
}

namespace {

/** Parse "<cols>x<rows>" into @p cfg; false if @p token is not of that
 *  shape (then it must be a preset name). */
bool
parseMeshToken(const std::string &token, MachineConfig &cfg)
{
    size_t x = token.find('x');
    if (x == std::string::npos || x == 0 || x + 1 >= token.size())
        return false;
    char *end = nullptr;
    unsigned long cols = std::strtoul(token.c_str(), &end, 10);
    if (end != token.c_str() + x)
        return false;
    unsigned long rows = std::strtoul(token.c_str() + x + 1, &end, 10);
    if (*end != '\0')
        return false;
    if (cols == 0 || rows == 0)
        return false;
    cfg.meshCols = static_cast<uint32_t>(cols);
    cfg.meshRows = static_cast<uint32_t>(rows);
    return true;
}

bool
applyOverride(const std::string &key, const std::string &value,
              MachineConfig &cfg, std::string &error)
{
    if (key == "place") {
        if (value == "tb")
            cfg.llcPlacement = LlcPlacement::TopBottom;
        else if (value == "t")
            cfg.llcPlacement = LlcPlacement::Top;
        else if (value == "b")
            cfg.llcPlacement = LlcPlacement::Bottom;
        else {
            error = log::format("machine spec: place=%s is not tb, t, "
                                "or b", value.c_str());
            return false;
        }
        return true;
    }
    char *end = nullptr;
    unsigned long long number = std::strtoull(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0') {
        error = log::format("machine spec: %s=%s is not a number",
                            key.c_str(), value.c_str());
        return false;
    }
    uint32_t n = static_cast<uint32_t>(number);
    if (key == "rx")
        cfg.rucheX = n;
    else if (key == "ry")
        cfg.rucheY = n;
    else if (key == "llc")
        cfg.llcBanks = n;
    else if (key == "ch")
        cfg.dramChannels = n;
    else if (key == "bw")
        cfg.dramBytesPerCycle = n;
    else if (key == "spm")
        cfg.spmBytes = n;
    else if (key == "win")
        cfg.spmWindowBytes = n;
    else if (key == "dramMB")
        cfg.dramBytes = number * 1024 * 1024;
    else if (key == "stackKB")
        cfg.hostStackBytes = n * 1024;
    else {
        error = log::format("machine spec: unknown key '%s' (known: rx, "
                            "ry, llc, place, ch, bw, spm, win, dramMB, "
                            "stackKB)", key.c_str());
        return false;
    }
    return true;
}

} // namespace

bool
MachineConfig::fromSpec(const char *text, MachineConfig &out,
                        std::string &error)
{
    SPMRT_ASSERT(text != nullptr, "fromSpec: null input");
    // Split on commas; the first token names the base machine.
    std::string spec(text);
    std::vector<std::string> tokens;
    size_t pos = 0;
    while (pos <= spec.size()) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string token = spec.substr(pos, comma - pos);
        // Trim surrounding whitespace.
        size_t b = token.find_first_not_of(" \t");
        size_t e = token.find_last_not_of(" \t");
        tokens.push_back(b == std::string::npos
                             ? std::string()
                             : token.substr(b, e - b + 1));
        pos = comma + 1;
    }
    if (tokens.empty() || tokens[0].empty()) {
        error = "machine spec is empty; expected a preset name "
                "(paper, big256, big1024, tiny, small) or <cols>x<rows>";
        return false;
    }

    MachineConfig cfg;
    const std::string &base = tokens[0];
    if (base == "paper")
        cfg = paper();
    else if (base == "big256")
        cfg = big256();
    else if (base == "big1024")
        cfg = big1024();
    else if (base == "tiny")
        cfg = tiny();
    else if (base == "small")
        cfg = small();
    else if (!parseMeshToken(base, cfg)) {
        error = log::format("machine spec: '%s' is neither a preset "
                            "(paper, big256, big1024, tiny, small) nor "
                            "<cols>x<rows>", base.c_str());
        return false;
    }

    for (size_t i = 1; i < tokens.size(); ++i) {
        const std::string &token = tokens[i];
        if (token.empty())
            continue;
        size_t eq = token.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size()) {
            error = log::format("machine spec: '%s' is not key=value",
                                token.c_str());
            return false;
        }
        if (!applyOverride(token.substr(0, eq), token.substr(eq + 1), cfg,
                           error))
            return false;
    }

    // A parseable but inconsistent machine is a hard error: validate()
    // throws the parameter-level diagnostic.
    cfg.validate();
    out = cfg;
    return true;
}

MachineConfig
MachineConfig::fromEnv(const MachineConfig &fallback)
{
    std::string spec = env::stringValue("SPMRT_MACHINE");
    if (spec.empty())
        return fallback;
    MachineConfig cfg;
    std::string error;
    if (!fromSpec(spec.c_str(), cfg, error))
        SPMRT_FATAL("SPMRT_MACHINE: %s", error.c_str());
    return cfg;
}

} // namespace spmrt
