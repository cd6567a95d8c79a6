/**
 * @file
 * Minimal JSON value + recursive-descent parser for the model layer.
 *
 * The fitter ingests the counters-JSON reports the benches already
 * emit (BENCH_app_*.json ladders, t3dsim-counters-v1 dumps,
 * t3dsim-sweeps-v1 sweep files) and none of those need more than
 * objects, arrays, strings, numbers and booleans, so this is a small
 * self-contained reader rather than a dependency the container does
 * not have. Numbers are held as double — every quantity the model
 * consumes (cycles, counts, coefficients) fits a double exactly up
 * to 2^53, far beyond any sweep the benches produce.
 */

#ifndef T3DSIM_MODEL_JSON_HH
#define T3DSIM_MODEL_JSON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace t3dsim::model
{

/** One parsed JSON value (tree-owning). */
class Json
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind() const { return _kind; }
    bool isNull() const { return _kind == Kind::Null; }
    bool isObject() const { return _kind == Kind::Object; }
    bool isArray() const { return _kind == Kind::Array; }
    bool isNumber() const { return _kind == Kind::Number; }
    bool isString() const { return _kind == Kind::String; }
    bool isBool() const { return _kind == Kind::Bool; }

    /** Value accessors; wrong-kind access returns a zero value. */
    bool boolean() const { return _bool; }
    double number() const { return _number; }
    const std::string &str() const { return _string; }
    const std::vector<Json> &array() const { return _array; }

    /** Object member, or a shared null value when absent. */
    const Json &operator[](const std::string &key) const;

    /** True if the object has member @p key. */
    bool has(const std::string &key) const;

    /** Object members in insertion order (empty for non-objects). */
    const std::vector<std::pair<std::string, Json>> &members() const
    {
        return _members;
    }

    /** Convenience: member @p key as a number, or @p fallback. */
    double numberOr(const std::string &key, double fallback) const;

    /**
     * Deepest array/object nesting parse() accepts. Every DAG, sweep
     * file and benchmark report nests a handful of levels; deeper
     * input fails with "nesting too deep" at the offending bracket.
     */
    static constexpr int maxNesting = 256;

    /**
     * Parse @p text.
     * @param error When non-null, receives a one-line diagnostic
     *              ("offset N: …") on failure.
     * @return the parsed value, or a Null value on failure (a
     *         top-level literal `null` sets *error empty).
     */
    static Json parse(const std::string &text,
                      std::string *error = nullptr);

    /** Parse the file at @p path (empty + error on I/O failure). */
    static Json parseFile(const std::string &path,
                          std::string *error = nullptr);

    /** @name Builders (tests and report plumbing) */
    /// @{
    static Json makeNull() { return Json(); }
    static Json makeBool(bool b);
    static Json makeNumber(double v);
    static Json makeString(std::string s);
    static Json makeArray(std::vector<Json> items);
    static Json makeObject();

    /** Append/overwrite an object member (keeps insertion order). */
    void set(const std::string &key, Json value);
    /// @}

  private:
    Kind _kind = Kind::Null;
    bool _bool = false;
    double _number = 0;
    std::string _string;
    std::vector<Json> _array;
    std::vector<std::pair<std::string, Json>> _members;
};

} // namespace t3dsim::model

#endif // T3DSIM_MODEL_JSON_HH
