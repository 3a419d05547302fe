package shapes;

import java.lang.annotation.ElementType;
import java.lang.annotation.Target;

/**
 * Valid Java whose declaration heads a backward reading can take for
 * methods or misread: constructors after an annotation or a type-parameter
 * list, and annotations on the array dimensions of a return type.
 */
class Ctors {
    @interface Test { }

    @interface Inject { }

    @Target(ElementType.TYPE_USE)
    @interface A { int value() default 0; }

    @Target(ElementType.TYPE_USE)
    @interface B { }

    @Inject Ctors() { }

    @Test <T> Ctors(T t, T u) { }

    public <T> Ctors(T t) { }

    protected <T extends Comparable<T>> Ctors(T t, int x) { }

    @Test String @A [] testX() { return null; }

    String @A [] dims() { return null; }

    int @A [] @B [] dims2() { return null; }

    static String @A(1) @B [] @A [] dims3() { return null; }
}
