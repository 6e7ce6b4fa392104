// Fixture: <random> and its engines and distributions fire at these
// exact lines; naming them in a comment (std::mt19937_64) does not.
#include <cstdint>
#include <random>                                  // line 4: <random>

double
draw(std::uint64_t seed)
{
    std::mt19937_64 engine(seed);                  // line 9: engine
    std::normal_distribution<double> gauss(0, 1);  // line 10
    std::uniform_int_distribution<int> pick(0, 3); // line 11
    double u = std::uniform_real_distribution<double>(0, 1)(engine); // 12
    return gauss(engine) + u + pick(engine);
}
