package repro.util

/** Counter-based deterministic randomness.
  *
  * The streaming protocol's one coin, drawn in `repro.counter.Site`'s
  * `increment` function for both engines, is
  * `uniform(seed, site·numCounters + counter, localCount)`. It must be
  * reproducible regardless of execution order — the sequential simulator
  * and the Spark micro-batch engine draw the same coins, and site logic
  * runs inside serialized Spark closures where carrying mutable RNG state
  * across batches is fragile. A stateless splitmix64-style hash of the
  * coordinates gives i.i.d.-quality uniforms with no state at all.
  */
object Rng {

  /** splitmix64 finalizer — high-quality 64-bit mix. */
  def mix64(z0: Long): Long = {
    var z = z0 + 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** Combine up to four coordinates into one well-mixed 64-bit value. */
  def hash(a: Long, b: Long, c: Long = 0L, d: Long = 0L): Long =
    mix64(mix64(key(a, b) ^ c) ^ d)

  /** The (a, b) half of `hash`, mixed once for many (c, d):
    * `hash(a, b, c, d) == mix64(mix64(key(a, b) ^ c) ^ d)`.
    */
  def key(a: Long, b: Long): Long = mix64(mix64(a) ^ b)

  /** Uniform double in [0, 1) from hashed coordinates. */
  def uniform(a: Long, b: Long, c: Long = 0L, d: Long = 0L): Double =
    unit(hash(a, b, c, d))

  /** `uniform(a, b, c)` from `key(a, b)`, bit for bit. */
  def uniformAt(key: Long, c: Long): Double = unit(mix64(mix64(key ^ c) ^ 0L))

  private def unit(h: Long): Double = (h >>> 11) * 1.1102230246251565e-16 // 2^-53

  /** Uniform int in [0, n) from hashed coordinates. */
  def uniformInt(n: Int, a: Long, b: Long, c: Long = 0L, d: Long = 0L): Int = {
    require(n > 0, s"uniformInt needs n > 0, got $n")
    (uniform(a, b, c, d) * n).toInt.min(n - 1)
  }
}
