package util;

final class Constants {
    static final String NAME = "constants";
    static final int LIMIT = 10;
}
