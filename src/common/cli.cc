#include "common/cli.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.hh"
#include "common/simd.hh"
#include "common/thread_pool.hh"

namespace pcmscrub {

namespace {

[[noreturn]] void
printUsage(const char *prog)
{
    std::printf(
        "usage: %s [--seed N] [--threads N] [--checkpoint PATH]\n"
        "       [--checkpoint-every H] [--resume PATH]\n"
        "       [--no-simd] [--lines N] [--sweeps N]\n"
        "       [--telemetry PATH] [--devices N] [--chaos]\n"
        "  --seed N              base RNG seed (default per harness)\n"
        "  --threads N           worker threads; results are\n"
        "                        bit-identical at any thread count\n"
        "  --lines N             simulated-array line count (default\n"
        "                        per harness; scale benches sweep it)\n"
        "  --sweeps N            scrub sweeps to simulate (default\n"
        "                        per harness)\n"
        "  --no-simd             force the scalar reference kernels\n"
        "                        instead of the vectorized (AVX2)\n"
        "                        ones (bit-identical results, slower;\n"
        "                        the in-tree oracle path)\n"
        "  --checkpoint PATH     write crash-safe snapshots to PATH\n"
        "                        (periodically and on SIGINT/SIGTERM)\n"
        "  --checkpoint-every H  snapshot every H simulated hours\n"
        "                        (requires --checkpoint)\n"
        "  --resume PATH         restore state from a snapshot, then\n"
        "                        continue; the result is bit-identical\n"
        "                        to an uninterrupted run\n"
        "  --telemetry PATH      append RAS controller samples to a\n"
        "                        JSONL file (RAS-aware harnesses only)\n"
        "  --devices N           heterogeneous devices in the fleet\n"
        "                        campaign (fleet harnesses only)\n"
        "  --chaos               deterministically inject harness\n"
        "                        failures — task kills, snapshot\n"
        "                        corruption, allocation failures,\n"
        "                        deadline overruns — to exercise the\n"
        "                        supervisor (fleet harnesses only)\n",
        prog);
    std::exit(0);
}

/**
 * Match "--flag VALUE" or "--flag=VALUE"; on a match, *value points at
 * the value string and *consumed says how many argv slots were eaten.
 */
bool
matchFlag(const char *flag, int argc, char **argv, int index,
          const char **value, int *consumed)
{
    const std::size_t flagLen = std::strlen(flag);
    if (std::strncmp(argv[index], flag, flagLen) != 0)
        return false;
    const char *rest = argv[index] + flagLen;
    if (*rest == '=') {
        *value = rest + 1;
        *consumed = 1;
        return true;
    }
    if (*rest == '\0') {
        if (index + 1 >= argc)
            fatal("%s requires a value", flag);
        *value = argv[index + 1];
        *consumed = 2;
        return true;
    }
    return false;
}

std::uint64_t
parseUint(const char *flag, const char *text)
{
    // strtoull silently accepts "-5" (wrapping it) and whitespace;
    // reject anything that is not a plain decimal digit string.
    if (*text == '\0')
        fatal("%s: empty value", flag);
    for (const char *c = text; *c != '\0'; ++c) {
        if (!std::isdigit(static_cast<unsigned char>(*c)))
            fatal("%s: not a non-negative integer: '%s'", flag, text);
    }
    errno = 0;
    char *end = nullptr;
    const unsigned long long parsed = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0')
        fatal("%s: not a number: '%s'", flag, text);
    if (errno == ERANGE)
        fatal("%s: value out of range: '%s'", flag, text);
    return static_cast<std::uint64_t>(parsed);
}

double
parsePositiveDouble(const char *flag, const char *text)
{
    if (*text == '\0')
        fatal("%s: empty value", flag);
    errno = 0;
    char *end = nullptr;
    const double parsed = std::strtod(text, &end);
    if (end == text || *end != '\0')
        fatal("%s: not a number: '%s'", flag, text);
    if (errno == ERANGE || !std::isfinite(parsed))
        fatal("%s: value out of range: '%s'", flag, text);
    if (parsed <= 0.0)
        fatal("%s: must be positive; got '%s'", flag, text);
    return parsed;
}

} // namespace

CliOptions
parseCliOptions(int argc, char **argv, std::uint64_t defaultSeed)
{
    return parseCliOptions(argc, argv, defaultSeed, nullptr);
}

CliOptions
parseCliOptions(int argc, char **argv, std::uint64_t defaultSeed,
                const char **positional)
{
    CliOptions opts;
    opts.seed = defaultSeed;
    bool positionalSeen = false;
    for (int i = 1; i < argc;) {
        const char *value = nullptr;
        int consumed = 0;
        if (std::strcmp(argv[i], "-h") == 0 ||
            std::strcmp(argv[i], "--help") == 0) {
            printUsage(argv[0]);
        } else if (matchFlag("--seed", argc, argv, i, &value, &consumed)) {
            opts.seed = parseUint("--seed", value);
            i += consumed;
        } else if (matchFlag("--threads", argc, argv, i, &value,
                             &consumed)) {
            const std::uint64_t threads = parseUint("--threads", value);
            if (threads == 0 || threads > 1024)
                fatal("--threads must be in [1, 1024]; got %llu",
                      static_cast<unsigned long long>(threads));
            opts.threads = static_cast<unsigned>(threads);
            i += consumed;
        } else if (matchFlag("--lines", argc, argv, i, &value,
                             &consumed)) {
            opts.lines = parseUint("--lines", value);
            if (opts.lines == 0)
                fatal("--lines must be at least 1");
            i += consumed;
        } else if (matchFlag("--sweeps", argc, argv, i, &value,
                             &consumed)) {
            opts.sweeps = parseUint("--sweeps", value);
            if (opts.sweeps == 0)
                fatal("--sweeps must be at least 1");
            i += consumed;
        } else if (matchFlag("--checkpoint-every", argc, argv, i, &value,
                             &consumed)) {
            opts.checkpointEverySimHours =
                parsePositiveDouble("--checkpoint-every", value);
            i += consumed;
        } else if (matchFlag("--checkpoint", argc, argv, i, &value,
                             &consumed)) {
            opts.checkpointPath = value;
            if (opts.checkpointPath.empty())
                fatal("--checkpoint: empty path");
            i += consumed;
        } else if (matchFlag("--resume", argc, argv, i, &value,
                             &consumed)) {
            opts.resumePath = value;
            if (opts.resumePath.empty())
                fatal("--resume: empty path");
            i += consumed;
        } else if (matchFlag("--telemetry", argc, argv, i, &value,
                             &consumed)) {
            opts.telemetryPath = value;
            if (opts.telemetryPath.empty())
                fatal("--telemetry: empty path");
            i += consumed;
        } else if (matchFlag("--devices", argc, argv, i, &value,
                             &consumed)) {
            opts.devices = parseUint("--devices", value);
            if (opts.devices == 0)
                fatal("--devices must be at least 1");
            i += consumed;
        } else if (std::strcmp(argv[i], "--chaos") == 0) {
            opts.chaos = true;
            ++i;
        } else if (std::strcmp(argv[i], "--no-simd") == 0) {
            opts.noSimd = true;
            ++i;
        } else if (positional != nullptr && !positionalSeen &&
                   argv[i][0] != '-') {
            *positional = argv[i];
            positionalSeen = true;
            ++i;
        } else {
            fatal("unknown argument '%s' (try --help)", argv[i]);
        }
    }
    if (opts.checkpointEverySimHours > 0.0 && opts.checkpointPath.empty())
        fatal("--checkpoint-every requires --checkpoint PATH");
    ThreadPool::global().resize(opts.threads);
    simd::setEnabled(!opts.noSimd);
    return opts;
}

} // namespace pcmscrub
