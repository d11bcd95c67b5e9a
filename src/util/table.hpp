/**
 * @file
 * Small ASCII table emitter used by the benchmark harnesses to
 * print paper-style tables (e.g. Table 2 and Table 3 of the paper).
 */

#ifndef VGUARD_UTIL_TABLE_HPP
#define VGUARD_UTIL_TABLE_HPP

#include <string>
#include <vector>

namespace vguard {

/** Column-aligned ASCII table with an optional title row. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    /** Append a row; the row is padded/truncated to the header width. */
    void addRow(std::vector<std::string> cells);

    /** Convenience for mixed numeric rows (formatted with %g / %s). */
    static std::string fmt(double v, int precision = 6);

    /** Render with aligned columns separated by two spaces. */
    std::string ascii() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace vguard

#endif // VGUARD_UTIL_TABLE_HPP
