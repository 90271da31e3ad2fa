"""Print src/qutrit_parity/_ziggurat.py from the installed NumPy's own tables.

NumPy's Generator.normal draws with a 256-layer ziggurat whose tables, ki_double,
wi_double and fi_double, are static arrays in the .rodata of distributions.c.o
inside numpy/random/lib/libnpyrandom.a. This tool reads that archive with a
small ar and ELF64 symbol-table reader (struct only, no binutils) and prints the
module that holds the tables as bytes literals, bit for bit. Run from the
repository root:

    python tools/ziggurat_tables.py > src/qutrit_parity/_ziggurat.py
    python tools/ziggurat_tables.py --check   # exit 1 if the module differs
"""

from __future__ import annotations

import argparse
import struct
import sys
from pathlib import Path

import numpy

MODULE = Path(__file__).resolve().parent.parent / "src" / "qutrit_parity" / "_ziggurat.py"
TABLES = ("ki_double", "wi_double", "fi_double")
SIZE = 256


def archive_members(data: bytes) -> dict:
    """{name: bytes} of the members of a GNU/System V ar archive."""
    if data[:8] != b"!<arch>\n":
        raise ValueError("not an ar archive")
    members, longnames, pos = {}, b"", 8
    while pos + 60 <= len(data):
        header = data[pos:pos + 60]
        name, size = header[:16].decode().rstrip(), int(header[48:58])
        body = data[pos + 60:pos + 60 + size]
        pos += 60 + size + (size & 1)
        if name == "//":
            longnames = body
        elif name.startswith("/") and name[1:].isdigit():  # "/<offset>" into longnames
            start = int(name[1:])
            members[longnames[start:longnames.index(b"/\n", start)].decode()] = body
        elif name != "/":  # "/" is the archive's symbol index
            members[name.rstrip("/")] = body
    return members


def elf_symbols(obj: bytes, names) -> dict:
    """{name: bytes} of the named data symbols of a little-endian ELF64 object."""
    if obj[:6] != b"\x7fELF\x02\x01":
        raise ValueError("not a little-endian ELF64 object")
    shoff, = struct.unpack_from("<Q", obj, 0x28)
    shentsize, shnum = struct.unpack_from("<HH", obj, 0x3A)
    # (sh_type, sh_offset, sh_size, sh_link) of each section header
    sections = [struct.unpack_from("<4xI16xQQI", obj, shoff + i * shentsize)
                for i in range(shnum)]
    found = {}
    for sh_type, offset, size, link in sections:
        if sh_type != 2:  # SHT_SYMTAB
            continue
        strtab = sections[link][1]
        for entry in range(offset, offset + size, 24):
            st_name, st_shndx, st_value, st_size = struct.unpack_from("<I2xHQQ", obj, entry)
            name = obj[strtab + st_name:obj.index(b"\0", strtab + st_name)].decode()
            if name in names:
                start = sections[st_shndx][1] + st_value
                found[name] = obj[start:start + st_size]
    missing = set(names) - set(found)
    if missing:
        raise ValueError(f"symbols not found: {sorted(missing)}")
    return found


def read_tables(archive: Path) -> dict:
    """{table name: its 256 little-endian 8-byte values as they are stored}."""
    members = archive_members(archive.read_bytes())
    obj = next(body for name, body in members.items() if name.endswith("distributions.c.o"))
    tables = elf_symbols(obj, TABLES)
    for name, raw in tables.items():
        if len(raw) != 8 * SIZE:
            raise ValueError(f"{name} holds {len(raw)} bytes, not {8 * SIZE}")
    return tables


def render(tables: dict) -> str:
    """The text of _ziggurat.py: each table as one bytes literal, read with
    np.frombuffer, since 768 numeric literals cost every import that has no
    cached bytecode a few ms to compile."""
    def block(name, raw, dtype):
        escaped = ["".join(f"\\x{b:02x}" for b in raw[i:i + 24]) for i in range(0, len(raw), 24)]
        lines = "\n".join(f'    b"{line}"' for line in escaped)
        return f'{name} = np.frombuffer(\n{lines},\n    "{dtype}",\n)\n'

    return ('"""NumPy\'s ziggurat tables for the standard normal (random_standard_normal).\n'
            "\n"
            "The ki_double, wi_double and fi_double arrays of numpy/random/lib/libnpyrandom.a\n"
            "(distributions.c.o), bit for bit, as read-only arrays, and the tail's edge r\n"
            "and 1/r as NumPy's ziggurat_constants.h spells them. Generated by\n"
            'tools/ziggurat_tables.py; do not edit by hand.\n"""\n'
            "\n"
            "import numpy as np\n"
            "\n"
            "R = 3.6541528853610087963519472518\n"
            "INV_R = 0.27366123732975827203338247596\n"
            "\n"
            + block("KI", tables["ki_double"], "<u8") + "\n"
            + block("WI", tables["wi_double"], "<f8") + "\n"
            + block("FI", tables["fi_double"], "<f8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help=f"exit 1 if {MODULE.name} differs from the printed text")
    args = parser.parse_args(argv)
    archive = Path(numpy.__file__).parent / "random" / "lib" / "libnpyrandom.a"
    text = render(read_tables(archive))
    if args.check:
        same = MODULE.read_text() == text
        print(f"{MODULE.name}: {'matches' if same else 'differs from'} {archive}")
        return 0 if same else 1
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
