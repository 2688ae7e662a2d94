// The one way this codebase reads a whole file.
//
// libstdc++ opens a directory like a file and then throws
// std::ios_base::failure ("Is a directory") from the first read, with no
// stream flag to turn it off.  read_file catches it, so a reader gets
// nullopt for a path it cannot open or read and chooses its own policy
// (an ArgumentError, an "unreadable" line, an expired lease) instead of
// aborting the process.
#ifndef GEOGOSSIP_SUPPORT_READ_FILE_HPP
#define GEOGOSSIP_SUPPORT_READ_FILE_HPP

#include <optional>
#include <string>

namespace geogossip {

/// The bytes of `path`, or nullopt when it cannot be opened or read (a
/// directory included).  Never throws on I/O failure.
std::optional<std::string> read_file(const std::string& path);

}  // namespace geogossip

#endif  // GEOGOSSIP_SUPPORT_READ_FILE_HPP
