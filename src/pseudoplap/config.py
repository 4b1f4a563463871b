"""Plain-text run configuration: bracketed sections of key = value lines.

The parser keeps the source line of every key so downstream validation can
point at the offending file:line.  No nesting, no quoting; '#' or ';' start
a comment.
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

    def get(self, section: str, key: str, default=None):
        entry = self.sections.get(section, {}).get(key)
        return entry[0] if entry is not None else default

    def line_of(self, section: str, key: str) -> int:
        return self.sections.get(section, {}).get(key, (None, 0))[1]

    def _convert(self, section, key, default, conv, what):
        raw = self.get(section, key)
        if raw is None:
            return default
        try:
            return conv(raw)
        except ValueError:
            self.fail(section, key, f"expected {what}, got {raw!r}")

    def get_float(self, section, key, default=None):
        return self._convert(section, key, default, float, "a number")

    def get_int(self, section, key, default=None):
        return self._convert(section, key, default, int, "an integer")

    def get_bool(self, section, key, default=None):
        def conv(s):
            s = s.lower()
            if s in ("true", "yes", "1", "on"):
                return True
            if s in ("false", "no", "0", "off"):
                return False
            raise ValueError(s)

        return self._convert(section, key, default, conv, "a boolean")

    def get_list(self, section, key, default=None, conv=float):
        def items(raw):
            return [conv(t.strip()) for t in raw.split(",") if t.strip()]

        return self._convert(section, key, default, items, "a comma-separated list")

    def reject_unknown(self, known: dict) -> None:
        """Raise ConfigError at the first section or key, in file order, that
        `known` (section -> set of keys) does not list."""
        for section, entries in self.sections.items():
            if section not in known:
                raise ConfigError(f"{self.path}:{self.section_lines[section]}: unknown section "
                                  f"[{section}]; known: {', '.join(sorted(known))}")
            for key in entries:
                if key not in known[section]:
                    self.fail(section, key, "unknown key; known: "
                              + ", ".join(sorted(known[section])))

    def fail(self, section, key, message):
        line = self.line_of(section, key)
        loc = f"{self.path}:{line}" if line else self.path
        raise ConfigError(f"{loc}: [{section}] {key}: {message}")


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
