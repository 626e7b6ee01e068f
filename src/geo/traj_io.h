// Trajectory corpus I/O in a simple line-based CSV format.
//
// Format: one trajectory per line, `x1,y1;x2,y2;...` — human-diffable and
// sufficient for the corpus sizes this library targets.

#ifndef NEUTRAJ_GEO_TRAJ_IO_H_
#define NEUTRAJ_GEO_TRAJ_IO_H_

#include <string>
#include <vector>

#include "geo/trajectory.h"

namespace neutraj {

/// Serializes a corpus to the line-based CSV format.
std::string SerializeTrajectories(const std::vector<Trajectory>& trajs);

/// Parses a corpus from the line-based CSV format.
/// Throws std::runtime_error on malformed input.
std::vector<Trajectory> ParseTrajectories(const std::string& text);

/// Convenience wrappers reading/writing a file.
void SaveTrajectories(const std::string& path,
                      const std::vector<Trajectory>& trajs);
std::vector<Trajectory> LoadTrajectories(const std::string& path);

}  // namespace neutraj

#endif  // NEUTRAJ_GEO_TRAJ_IO_H_
