package repro.traj

import java.nio.ByteBuffer
import java.security.MessageDigest
import repro.core.SnapshotRow

/** Fingerprint of a generated stream, so a refactor of the generators can
  * show that every record stayed bit-for-bit the same.
  */
object StreamDigest {

  /** (record count, SHA-256 hex) over every record of objects `0 until n`,
    * in object order, hashing (time, id, x bits, y bits) per record.
    */
  def of(n: Int)(genObject: Long => Seq[SnapshotRow]): (Int, String) = {
    val md = MessageDigest.getInstance("SHA-256")
    val buf = ByteBuffer.allocate(28)
    var count = 0
    var id = 0L
    while (id < n) {
      genObject(id).foreach { r =>
        buf.clear()
        buf.putInt(r.time).putLong(r.id)
          .putLong(java.lang.Double.doubleToRawLongBits(r.x))
          .putLong(java.lang.Double.doubleToRawLongBits(r.y))
        md.update(buf.array())
        count += 1
      }
      id += 1
    }
    (count, md.digest().map(b => f"${b & 0xff}%02x").mkString)
  }
}
