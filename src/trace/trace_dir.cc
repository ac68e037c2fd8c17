#include "trace/trace_dir.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <system_error>

namespace lvplib::trace
{

namespace fs = std::filesystem;

namespace
{

double
fileAgeSeconds(const fs::path &p)
{
    std::error_code ec;
    auto mtime = fs::last_write_time(p, ec);
    if (ec)
        return 0;
    auto age = fs::file_time_type::clock::now() - mtime;
    return std::chrono::duration<double>(age).count();
}

} // namespace

TraceDirScan
scanTraceDir(const std::string &dir, bool prune,
             double tempPruneAgeSeconds)
{
    TraceDirScan scan;
    std::error_code ec;
    fs::directory_iterator it(dir, ec);
    if (ec) {
        scan.error = ec.message();
        return scan;
    }
    scan.ok = true;
    for (const auto &ent : it) {
        if (!ent.is_regular_file(ec))
            continue;
        TraceDirEntry e;
        e.path = ent.path().string();
        e.name = ent.path().filename().string();
        if (e.name.size() > 6 &&
            e.name.compare(e.name.size() - 6, 6, ".trace") == 0) {
            scan.traces.push_back(std::move(e));
        } else if (e.name.find(".trace.tmp.") != std::string::npos) {
            e.isTemp = true;
            e.ageSeconds = fileAgeSeconds(ent.path());
            scan.temps.push_back(std::move(e));
        }
    }
    auto byName = [](const TraceDirEntry &a, const TraceDirEntry &b) {
        return a.name < b.name;
    };
    std::sort(scan.traces.begin(), scan.traces.end(), byName);
    std::sort(scan.temps.begin(), scan.temps.end(), byName);

    for (auto &e : scan.traces) {
        e.report = verifyTraceFile(e.path);
        if (e.report.ok())
            continue;
        ++scan.invalid;
        if (prune) {
            fs::remove(e.path, ec);
            e.pruned = true;
            ++scan.prunedCount;
        }
    }
    for (auto &e : scan.temps) {
        if (prune && e.ageSeconds > tempPruneAgeSeconds) {
            fs::remove(e.path, ec);
            e.pruned = true;
            ++scan.prunedCount;
        }
    }
    return scan;
}

} // namespace lvplib::trace
