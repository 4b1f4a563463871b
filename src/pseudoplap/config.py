"""Plain-text run configuration: bracketed sections of key = value lines.

The parser keeps the source line of every key so downstream validation can
point at the offending file:line.  No nesting, no quoting; '#' or ';' start
a comment.  The getters check each value where it is read and record every
(section, key) asked for; `reject_unread` rejects whatever was never asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class ConfigError(Exception):
    """Invalid configuration; message carries path:line where applicable."""


@dataclass
class RawConfig:
    path: str
    sections: dict = field(default_factory=dict)  # section -> {key: (value, line)}
    section_lines: dict = field(default_factory=dict)  # section -> line of its first header
    text: str = ""
    read: dict = field(default_factory=dict)  # section -> set of keys a getter asked for
    closed: bool = False  # set by reject_unread; reading after it is a bug

    def get(self, section: str, key: str, default=None):
        if self.closed:
            raise RuntimeError(f"[{section}] {key} read after reject_unread()")
        self.read.setdefault(section, set()).add(key)
        entry = self.sections.get(section, {}).get(key)
        return entry[0] if entry is not None else default

    def _convert(self, section, key, default, conv, what, valid=None, rule=None):
        """[section] key converted by `conv`, or `default` if absent.  With `valid`,
        the value, or each item of a nonempty list, must pass it or fail with `rule`."""
        raw = self.get(section, key)
        try:
            value = default if raw is None else conv(raw)
        except ValueError:
            self.fail(section, key, f"expected {what}, got {raw!r}")
        if valid is not None:
            items = value if isinstance(value, list) else [value]
            if not items:
                self.fail(section, key, "the list is empty")
            for item in items:
                if not valid(item):
                    self.fail(section, key, f"{rule}, got {item}")
        return value

    def get_float(self, section, key, default=None, valid=None, rule=None):
        return self._convert(section, key, default, float, "a number", valid, rule)

    def get_int(self, section, key, default=None, valid=None, rule=None):
        return self._convert(section, key, default, int, "an integer", valid, rule)

    def get_bool(self, section, key, default=None):
        def conv(s):
            s = s.lower()
            if s in ("true", "yes", "1", "on"):
                return True
            if s in ("false", "no", "0", "off"):
                return False
            raise ValueError(s)

        return self._convert(section, key, default, conv, "a boolean")

    def get_list(self, section, key, default=None, conv=float, valid=None, rule=None):
        def items(raw):
            return [conv(t.strip()) for t in raw.split(",") if t.strip()]

        return self._convert(section, key, default, items, "a comma-separated list", valid, rule)

    def reject_unread(self) -> None:
        """Raise ConfigError at the first section or key, in file order, that no
        getter asked for; any getter call after this one raises RuntimeError."""
        self.closed = True
        for section, entries in self.sections.items():
            if section not in self.read:
                raise ConfigError(f"{self.path}:{self.section_lines[section]}: unknown section "
                                  f"[{section}]; known: {', '.join(sorted(self.read))}")
            for key in entries:
                if key not in self.read[section]:
                    self.fail(section, key, "unknown key; known: "
                              + ", ".join(sorted(self.read[section])))

    def fail(self, section, key, message):
        """Raise ConfigError at [section] key's line; with key None, at the
        section's header, for a fault of the section as a whole."""
        if key is None:
            line, where = self.section_lines.get(section, 0), f"[{section}]"
        else:
            line = self.sections.get(section, {}).get(key, (None, 0))[1]
            where = f"[{section}] {key}"
        loc = f"{self.path}:{line}" if line else self.path
        raise ConfigError(f"{loc}: {where}: {message}")


def parse_config(path) -> RawConfig:
    cfg = RawConfig(path=str(path))
    try:
        with open(path) as fh:
            cfg.text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    section = None
    for lineno, line in enumerate(cfg.text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(("#", ";")):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if not section:
                raise ConfigError(f"{path}:{lineno}: empty section name")
            cfg.sections.setdefault(section, {})
            cfg.section_lines.setdefault(section, lineno)
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        if section is None:
            raise ConfigError(f"{path}:{lineno}: key outside any [section]")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in cfg.sections[section]:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r} in [{section}]")
        cfg.sections[section][key] = (value, lineno)
    return cfg
